package difftest

import (
	"errors"
	"testing"

	"p4all/internal/core"
	"p4all/internal/ilpgen"
	"p4all/internal/pisa"
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

// TestChargesFitCutTarget runs the engine oracle, whose budget check
// holds every packet's per-stage charge to the layout's StageUse and
// the target's ALUs, on the evaluation target cut to 2 stateful and 3
// stateless ALUs, where the budgets bind. FlowRadar does not fit that
// target. Precision and HashPipe do not fit either, and
// StandaloneHashTable fits only after a solve of seconds, so those
// three are left out to keep the suite fast.
func TestChargesFitCutTarget(t *testing.T) {
	tgt := pisa.EvalTarget(fuzzBudget)
	tgt.StatefulALUs, tgt.StatelessALUs = 2, 3
	skip := map[string]bool{"Precision": true, "HashPipe": true, "StandaloneHashTable": true}
	for _, spec := range append(Specs(), engineSpecs()...) {
		if skip[spec.Name] {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			res, err := core.Compile(spec.Source, tgt, baseSolver())
			if spec.Name == "FlowRadar" {
				if !errors.Is(err, ilpgen.ErrInfeasible) {
					t.Fatalf("compile: %v, want it not to fit", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			div, detail, err := replayEngines(spec, res, GenStream(spec, 7, 2000), 7)
			switch {
			case err != nil:
				t.Fatal(err)
			case detail != "":
				t.Fatal(detail)
			case div != nil:
				t.Fatalf("engines diverged: %s", div)
			}
		})
	}
}
