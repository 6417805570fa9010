package ilp_test

import (
	"fmt"
	"math"
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
var driftOptions = ilp.Options{Gap: 0.1, NodeLimit: 1000, TimeLimit: 15 * time.Second}

// TestWarmDiveSplit prints where the LP iterations of the tenant-drift
// cycle, of the benchmark's compile-solve programs (NetCache at 1.0,
// 1.75 and 2.5 Mb, Precision at 1.75 Mb) and of Figure 12's NetCache
// at 1.25, 1.5 and 0.25 Mb go — root, dive, neighbourhood search, tree
// — with the dive's warm primal restarts and their fallbacks, and
// asserts that the four parts sum to the solve's iterations. At 1.0,
// 1.25, 1.5 and 1.75 Mb the neighbourhood search finds the incumbent
// that ends the solve at the root, at its known objective, in at most
// 3 400 iterations over the four points; at 0.25 Mb it runs before a
// tree. The drift cycle's cold compile runs no neighbourhood search:
// its dive finds nothing, and every incumbent is the tree's. The drift
// re-solves are warm-started the way multitenant.Compiler does it, from
// a two-start ilpgen.History of layouts and their root bases, and each
// line names the start that seeded the incumbent and how the root LP
// started. A warm-started re-solve runs no dive and no neighbourhood
// search, and the flip to weight 0.5 still reaches 53 248 in at most 5
// nodes from its start, in at most 320 simplex iterations: bound
// propagation closes its LP-infeasible node without an LP. `make
// bench-profile` runs it with -v so the CI artifact shows the split,
// and `make lp-split-diff` diffs it against another commit.
func TestWarmDiveSplit(t *testing.T) {
	logSplit := func(name string, sol *ilp.Solution) {
		t.Helper()
		seed := ilpgen.Stats{WarmStarted: sol.WarmStarted, StartIndex: sol.StartIndex}.Seed()
		t.Logf("%-22s nodes %4d  iters %5d = root %4d + dive %4d + neighbourhood %4d (%2d nodes, %d found) + tree %5d  warm restarts %3d, fallbacks %d  start %-11s root %s",
			name, sol.Nodes, sol.SimplexIter, sol.RootIters, sol.DiveIters, sol.NeighbourIters, sol.NeighbourNodes, sol.NeighbourFound, sol.TreeIters,
			sol.WarmRestarts, sol.WarmFallbacks, seed, sol.RootStart)
		if sol.RootIters+sol.DiveIters+sol.NeighbourIters+sol.TreeIters != sol.SimplexIter {
			t.Errorf("%s: split %d + %d + %d + %d does not sum to %d iterations",
				name, sol.RootIters, sol.DiveIters, sol.NeighbourIters, sol.TreeIters, sol.SimplexIter)
		}
	}
	sol, err := ilp.Solve(twoTenantModel(t, 2), driftOptions)
	if err != nil {
		t.Fatal(err)
	}
	logSplit("drift cold w=2", sol)
	if sol.DiveFound != 0 || sol.NeighbourNodes != 0 || sol.TreeFound == 0 {
		t.Errorf("drift cold: dive found %d, %d neighbourhood nodes, tree found %d; want a dive that finds nothing, so no neighbourhood search, and the tree's incumbents",
			sol.DiveFound, sol.NeighbourNodes, sol.TreeFound)
	}
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
			if sol.DiveIters != 0 || sol.WarmRestarts != 0 || sol.NeighbourNodes != 0 {
				t.Errorf("warm re-solve at weight %v: %d dive iterations, %d warm restarts, %d neighbourhood nodes; a solve with an installed start runs no dive and no neighbourhood search",
					w, sol.DiveIters, sol.WarmRestarts, sol.NeighbourNodes)
			}
			if w == 0.5 && (sol.Objective != 53248 || sol.Nodes > 5 || sol.SimplexIter > 320 || sol.PropPruned < 1) {
				t.Errorf("flip to weight 0.5: objective %v in %d nodes, %d iterations, %d closed by propagation; want 53248 in at most 5 nodes and 320 iterations, at least 1 closed",
					sol.Objective, sol.Nodes, sol.SimplexIter, sol.PropPruned)
			}
		}
	}
	// ballPoints are the NetCache points whose neighbourhood search ends
	// the solve at the root, with the objective it finds there.
	ballPoints := map[string]float64{"1.0": 172236.8, "1.25": 216473.6, "1.5": 260710.4, "1.75": 304947.2}
	ballIters := 0
	logNetCache := func(mem string, sol *ilp.Solution) {
		t.Helper()
		logSplit("netcache "+mem+" Mb", sol)
		want, ok := ballPoints[mem]
		if !ok {
			return
		}
		ballIters += sol.NeighbourIters
		if sol.NeighbourFound != 1 || math.Abs(sol.Objective-want) > 1e-9*want {
			t.Errorf("netcache %s Mb: neighbourhood search found %d, objective %v; want 1 found, objective %v",
				mem, sol.NeighbourFound, sol.Objective, want)
		}
	}
	compile := ilp.Options{Gap: 0.03}
	if sol, err = ilp.Solve(netCacheModel(t), compile); err != nil {
		t.Fatal(err)
	}
	logNetCache("1.0", sol)
	netcache := apps.NetCache(apps.NetCacheConfig{}).Source
	for _, mem := range []struct {
		name string
		bits int
	}{{"1.75", 7 * pisa.Mb / 4}, {"2.5", 5 * pisa.Mb / 2}, {"1.25", 5 * pisa.Mb / 4}, {"1.5", 3 * pisa.Mb / 2}, {"0.25", pisa.Mb / 4}} {
		if sol, err = ilp.Solve(programModel(t, netcache, pisa.EvalTarget(mem.bits)), compile); err != nil {
			t.Fatal(err)
		}
		logNetCache(mem.name, sol)
	}
	if ballIters > 3400 {
		t.Errorf("neighbourhood search at NetCache 1.0, 1.25, 1.5 and 1.75 Mb: %d iterations, want at most 3 400", ballIters)
	}
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
			got.Nodes, got.SimplexIter, got.Objective, want.Nodes, want.SimplexIter, want.Objective)
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
		sol := ilp.SolveDiveChecked(t, m, ilp.Options{NodeLimit: 4}, !coldDrift[name])
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
