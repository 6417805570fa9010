package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

func TestResolveTargetBuiltins(t *testing.T) {
	cases := map[string]int{"eval": 10, "running-example": 3, "tofino": 12, "Tofino-Like": 12}
	for spec, stages := range cases {
		tgt, err := resolveTarget(spec, 0)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if tgt.Stages != stages {
			t.Errorf("%s: stages = %d, want %d", spec, tgt.Stages, stages)
		}
	}
}

func TestResolveTargetMemOverride(t *testing.T) {
	tgt, err := resolveTarget("eval", 12345)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.MemoryBits != 12345 {
		t.Errorf("MemoryBits = %d, want override 12345", tgt.MemoryBits)
	}
}

func TestResolveTargetJSONFile(t *testing.T) {
	spec := pisa.TofinoLike()
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "target.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tgt, err := resolveTarget(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Stages != spec.Stages || tgt.HashUnits != spec.HashUnits {
		t.Errorf("loaded target mismatch: %+v", tgt)
	}
}

func TestResolveTargetMissing(t *testing.T) {
	if _, err := resolveTarget("/no/such/spec.json", 0); err == nil {
		t.Error("missing spec accepted")
	}
}

// TestFlowRadarCertifiesOnDefaultTarget: `p4allc -app flowradar
// -certify` used to exit 1 — three counting-table registers share each
// stage's memory, the layout recorded the LP's fractional share per
// register instead of cells x width, and the validator's register-shape
// audit rejected it.
func TestFlowRadarCertifiesOnDefaultTarget(t *testing.T) {
	target, err := resolveTarget("eval", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(apps.FlowRadar().Source, target, core.Options{Certify: true, Name: "FlowRadar"})
	if err != nil {
		t.Fatal(err)
	}
	if cert := res.Certificate; !cert.Proved() {
		t.Errorf("%s", cert.Summary())
		for _, c := range cert.Audit.Checks {
			if !c.OK {
				t.Errorf("audit %s: %s", c.Name, c.Detail)
			}
		}
	}
}

// TestUnrollStatsLine: -stats says why each loop symbolic got its
// bound, in program order, and how many path criteria were estimated.
func TestUnrollStatsLine(t *testing.T) {
	target, err := resolveTarget("eval", 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := lang.ParseAndResolve(apps.NetCache(apps.NetCacheConfig{}).Source)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	want := "unroll: cms_rows <= 4 (assume, 4 graphs); kv_parts <= 9 (path, 10 graphs); path_estimates=0"
	if got := unrollStats("unroll", bounds); got != want {
		t.Errorf("unrollStats = %q, want %q", got, want)
	}
}

// TestStatsLines: -stats names every compile phase, so the printed
// phases add up to the printed total (certify was once missing from a
// single compile's line), and its one ILP block says which warm start
// seeded the incumbent and what presolve removed, for one program or
// many.
func TestStatsLines(t *testing.T) {
	ms := time.Millisecond
	ph := core.Phases{Parse: 1 * ms, Bounds: 2 * ms, Generate: 3 * ms, Isolate: 4 * ms, Solve: 5 * ms, Codegen: 6 * ms, Certify: 7 * ms}
	want := "phases: parse=1ms bounds=2ms generate=3ms isolate=4ms solve=5ms codegen=6ms certify=7ms (total 28ms)"
	if got := phasesLine(ph); got != want {
		t.Errorf("phasesLine = %q, want %q", got, want)
	}
	st := ilpgen.Stats{
		Vars: 455, Constrs: 616, Nodes: 46, Gap: 0.0141, WarmStarted: true, StartIndex: 1,
		SimplexIter: 3658, DualIters: 3036, PrimalFallbacks: 1, Refactors: 33,
		RootIters: 309, RootStart: "cold", DiveIters: 313, TreeIters: 3036, WarmRestarts: 2, WarmFallbacks: 1,
		Presolve: ilp.PresolveStats{BoundsTightened: 13, VarsFixed: 12, RowsDropped: 62},
	}
	want = "ILP: 455 variables, 616 constraints, 46 nodes, certified gap 1.41%, warm start predecessor\n" +
		"solver: 3658 simplex iters (3036 dual, 1 primal fallbacks), 33 refactorizations\n" +
		"lp iters: root 309 (cold), dive 313, tree 3036; 2 warm restarts, 1 warm fallbacks\n" +
		"presolve: 13 bounds tightened, 12 variables fixed, 62 rows dropped\n"
	if got := solverStats(st); got != want {
		t.Errorf("solverStats =\n%s\nwant\n%s", got, want)
	}
}
