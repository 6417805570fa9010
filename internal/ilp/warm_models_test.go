package ilp_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// driftWeights is one cycle of bench/'s tenant-drift workload: the KVS
// tenant's weight nudged twice, then flipped twice.
var driftWeights = []float64{2.5, 2, 0.5, 2}

// driftOptions are tenant-drift's solver knobs.
var driftOptions = ilp.Options{
	Deterministic: true, Threads: 1,
	Gap: 0.1, NodeLimit: 1000, TimeLimit: 15 * time.Second,
}

// TestWarmDiveSplit prints where the LP iterations of the tenant-drift
// cycle and of two compiles go — root, dive, tree — with the dive's
// warm primal restarts and their fallbacks. The drift re-solves are
// warm-started the way multitenant.Compiler does it, from a two-start
// ilpgen.History of layouts and their root bases, and each line names
// the start that seeded the incumbent and how the root LP started. A
// warm-started re-solve runs no dive, and the flip to weight 0.5 still
// reaches 53 248 in at most 5 nodes from its start. `make
// bench-profile` runs it with -v so the CI artifact shows the split,
// and `make lp-split-diff` diffs it against another commit.
func TestWarmDiveSplit(t *testing.T) {
	logSplit := func(name string, sol *ilp.Solution) {
		t.Helper()
		seed := ilpgen.Stats{WarmStarted: sol.WarmStarted, StartIndex: sol.StartIndex}.Seed()
		t.Logf("%-22s nodes %4d  iters %5d = root %4d + dive %4d + tree %5d  warm restarts %3d, fallbacks %d  start %-11s root %s",
			name, sol.Nodes, sol.SimplexIters, sol.RootIters, sol.DiveIters, sol.TreeIters, sol.WarmRestarts, sol.WarmFallbacks, seed, sol.RootStart)
		if sol.RootIters+sol.DiveIters+sol.TreeIters != sol.SimplexIters {
			t.Errorf("%s: split %d + %d + %d does not sum to %d iterations", name, sol.RootIters, sol.DiveIters, sol.TreeIters, sol.SimplexIters)
		}
	}
	sol, err := ilp.Solve(twoTenantModel(t, 2), driftOptions)
	if err != nil {
		t.Fatal(err)
	}
	logSplit("drift cold w=2", sol)
	var pool ilpgen.History
	pool.Push(ilp.Start{Values: sol.Values, Basis: sol.RootBasis})
	for cycle := 0; cycle < 2; cycle++ {
		for _, w := range driftWeights {
			opts := driftOptions
			opts.Start = pool.Starts()
			if sol, err = ilp.Solve(twoTenantModel(t, w), opts); err != nil {
				t.Fatal(err)
			}
			pool.Push(ilp.Start{Values: sol.Values, Basis: sol.RootBasis})
			logSplit(fmt.Sprintf("drift %d w=%v", cycle, w), sol)
			if !sol.WarmStarted {
				t.Fatalf("re-solve at weight %v was not warm-started", w)
			}
			if sol.DiveIters != 0 || sol.WarmRestarts != 0 {
				t.Errorf("warm re-solve at weight %v: %d dive iterations, %d warm restarts; a solve with an installed start runs no dive", w, sol.DiveIters, sol.WarmRestarts)
			}
			if w == 0.5 && (sol.Objective != 53248 || sol.Nodes > 5) {
				t.Errorf("flip to weight 0.5: objective %v in %d nodes; want 53248 in at most 5", sol.Objective, sol.Nodes)
			}
		}
	}
	compile := ilp.Options{Deterministic: true, Threads: 1, Gap: 0.03}
	if sol, err = ilp.Solve(netCacheModel(t), compile); err != nil {
		t.Fatal(err)
	}
	logSplit("netcache 1.0 Mb", sol)
	if sol, err = ilp.Solve(programModel(t, apps.Precision().Source, pisa.EvalTarget(7*pisa.Mb/4)), compile); err != nil {
		t.Fatal(err)
	}
	logSplit("precision 1.75 Mb", sol)
	if sol.DiveIters == 0 || sol.WarmRestarts == 0 {
		t.Errorf("Precision dive: %d iterations, %d warm restarts; want both positive", sol.DiveIters, sol.WarmRestarts)
	}
}

// TestPooledRootAfterFlip: tenant-drift's first flip (KVS weight 2 →
// 0.5) leaves the w = 2 root basis dual infeasible. It is rejected for
// that reason, and the solve — nodes, iterations, values, everything but
// the reported root start — is the one without the basis.
func TestPooledRootAfterFlip(t *testing.T) {
	before, err := ilp.Solve(twoTenantModel(t, 2), driftOptions)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(basis *ilp.Basis) *ilp.Solution {
		t.Helper()
		opts := driftOptions
		opts.Start = []ilp.Start{{Values: before.Values, Basis: basis}}
		sol, err := ilp.Solve(twoTenantModel(t, 0.5), opts)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	want, got := solve(nil), solve(before.RootBasis)
	if got.RootStart != "rejected (not dual feasible)" {
		t.Fatalf("flip: root %q, want rejected (not dual feasible)", got.RootStart)
	}
	if want.RootStart != ilp.RootCold {
		t.Fatalf("flip without a basis: root %q, want cold", want.RootStart)
	}
	got.RootStart = want.RootStart
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flip with a rejected basis: %d nodes, %d iterations, objective %v; without it %d, %d, %v",
			got.Nodes, got.SimplexIters, got.Objective, want.Nodes, want.SimplexIters, want.Objective)
	}
}

// programModel is the placement model of one program on one target.
func programModel(t *testing.T, src string, target pisa.Target) *ilp.Model {
	t.Helper()
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Model
}

// shippedPrograms are the twelve programs the repo ships: the five
// applications, HashPipe, and the six standalone modules.
func shippedPrograms() [][2]string {
	var progs [][2]string
	for _, a := range append(apps.All(), apps.FlowRadar(), apps.HashPipe()) {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	return append(progs,
		[2]string{"StandaloneCMS", modules.StandaloneCMS()},
		[2]string{"StandaloneBloom", modules.StandaloneBloom()},
		[2]string{"StandaloneKVS", modules.StandaloneKVS()},
		[2]string{"StandaloneHashTable", modules.StandaloneHashTable()},
		[2]string{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		[2]string{"StandaloneIDTable", modules.StandaloneIDTable()},
	)
}

// TestWarmDiveMatchesCold solves the twelve shipped programs on the
// three built-in targets and the multi-tenant tests' 8-stage one, and
// the tenant-drift joint model at its four weights, re-solving every
// dive step that restarts warm cold as well: the two must agree on the
// verdict, optimal or infeasible, and to 1e-9 relative on the objective
// (the solver panics otherwise). The tree is cut at a few nodes; the
// dive runs in full before it. Every solve runs under the solver's
// debug invariants too, except on coldDrift's models: there a cold
// two-phase LP — the root, or a dive step that fell back or went cold —
// drifts past the incremental basic-value or ftran checks. Before warm
// restarts existed the cold path tripped them on six models of this
// corpus; it does on these seven, at bounds the cold dive never reached.
// No warm restart trips them. That says nothing about warm against cold,
// so those models compare warm and cold only.
func TestWarmDiveMatchesCold(t *testing.T) {
	coldDrift := map[string]bool{
		"Precision @ tofino-eval":               true,
		"Precision @ tofino-like":               true,
		"HashPipe @ tofino-eval":                true,
		"HashPipe @ tofino-like":                true,
		"StandaloneHashTable @ tofino-eval":     true,
		"StandaloneHashTable @ tofino-like":     true,
		"StandaloneCountingTable @ tofino-like": true,
	}
	if testing.Short() {
		t.Skip("52 solves under debug checks")
	}
	targets := []pisa.Target{
		pisa.EvalTarget(pisa.Mb),
		pisa.RunningExampleTarget(),
		pisa.TofinoLike(),
		{Name: "mt-test", Stages: 8, MemoryBits: 1 << 18, StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024},
	}
	var restarts, models int
	check := func(name string, m *ilp.Model) {
		sol := ilp.SolveDiveChecked(t, m, ilp.Options{Deterministic: true, NodeLimit: 4}, !coldDrift[name])
		restarts += sol.WarmRestarts
		models++
		t.Logf("%-40s %-10v %3d warm restarts checked, %d fallbacks", name, sol.Status, sol.WarmRestarts, sol.WarmFallbacks)
	}
	for _, p := range shippedPrograms() {
		for _, tgt := range targets {
			check(p[0]+" @ "+tgt.Name, programModel(t, p[1], tgt))
		}
	}
	for _, w := range driftWeights {
		check(fmt.Sprintf("tenant-drift w=%v", w), twoTenantModel(t, w))
	}
	t.Logf("%d models: %d warm-restarted dive steps agree with their cold re-solves", models, restarts)
	if restarts == 0 {
		t.Fatalf("the corpus restarted no dive step warm")
	}
}
