package difftest

import (
	"testing"
)

// TestEngineEquivalenceAllApps runs the engine oracle directly over a
// long generated stream for all 12 programs the repo ships: the
// interpreter and the bytecode VM (via its batched replay) must agree
// on outputs, register end-state, and Stats — and the VM lowering may
// not have fallen back for any of them.
func TestEngineEquivalenceAllApps(t *testing.T) {
	compiled := fuzzCompileAll(t, engineSpecs()...)
	for _, spec := range append(Specs(), engineSpecs()...) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := compiled[spec.Name]
			stream := GenStream(spec, 7, 2000)
			div, detail, err := replayEngines(spec, res, stream, 7)
			if err != nil {
				t.Fatalf("replay error: %v", err)
			}
			if detail != "" {
				t.Fatalf("engine oracle: %s", detail)
			}
			if div != nil {
				t.Fatalf("engines diverged: %s", div)
			}
		})
	}
}

// TestRunRejectsUnknownEngine pins the config validation path.
func TestRunRejectsUnknownEngine(t *testing.T) {
	if _, err := Run(Config{Engine: "bogus"}); err == nil {
		t.Fatal("Run accepted an unknown engine")
	}
}

// TestRunInterpEngine exercises the harness with the reference engine
// forced, on a small slice of the matrix — the -engine=interp bisection
// path cmd/difftest exposes.
func TestRunInterpEngine(t *testing.T) {
	rep, err := Run(Config{
		Seed: 3, N: 60, Budgets: []int{fuzzBudget},
		Apps: []string{"NetCache"}, Oracles: []string{OracleGolden, OracleEngine},
		Engine: "interp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, f := range rep.Failures {
			t.Errorf("failure: %s", f)
		}
	}
	if rep.Checks != 2 {
		t.Fatalf("expected 2 checks (golden + engine), got %d", rep.Checks)
	}
}
