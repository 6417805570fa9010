package ilp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/pisa"
)

// TestNodePropagationIsSound solves under the solver's debugProp check:
// every tree node bound propagation closes without an LP is re-solved
// cold and must be LP-infeasible, so the search is the one the LP alone
// would run. The corpus is the tenant-drift cycle (the cold solve and
// two warm cycles), NetCache at 0.5 and 0.75 Mb,
// NetCache at 1.0 Mb with its neighbourhood search, objectiveRowMIP,
// and small seeded MIPs whose variables have no upper bound, solved
// without the root presolve so node propagation meets +Inf bounds and
// rows the presolve would have tightened first; those are also solved
// with the presolve, and the two must agree.
func TestNodePropagationIsSound(t *testing.T) {
	pruned := map[string]int{}
	check := func(group, name string, m *ilp.Model, opts ilp.Options) *ilp.Solution {
		t.Helper()
		sol := ilp.SolvePropChecked(t, m, opts)
		pruned[group] += sol.PropPruned
		t.Logf("%-26s %-8v nodes %4d  iters %6d  closed by propagation %3d", name, sol.Status, sol.Nodes, sol.SimplexIter, sol.PropPruned)
		return sol
	}

	sol := check("drift", "drift cold w=2", twoTenantModel(t, 2), driftOptions)
	var pool ilpgen.History
	pool.Push(ilp.Start{Values: sol.Values, Basis: sol.RootBasis})
	for cycle := 0; cycle < 2; cycle++ {
		for _, w := range driftWeights {
			opts := driftOptions
			opts.Start = pool.Starts()
			sol = check("drift", fmt.Sprintf("drift %d w=%v", cycle, w), twoTenantModel(t, w), opts)
			pool.Push(ilp.Start{Values: sol.Values, Basis: sol.RootBasis})
		}
	}

	netcache := apps.NetCache(apps.NetCacheConfig{}).Source
	for _, mem := range []struct {
		name  string
		bits  int
		nodes int
	}{{"0.5", pisa.Mb / 2, 230}, {"0.75", 3 * pisa.Mb / 4, 255}} {
		m := programModel(t, netcache, pisa.EvalTarget(mem.bits))
		check("netcache", "netcache "+mem.name+" Mb", m, ilp.Options{Gap: 0.03, NodeLimit: mem.nodes})
	}

	// A cold compile: the dive's incumbent, then the neighbourhood
	// search around it, whose own tree propagates too.
	sol = check("netcache", "netcache 1.0 Mb, searched", netCacheModel(t), ilp.Options{Gap: 0.03})
	if sol.NeighbourNodes == 0 {
		t.Errorf("netcache 1.0 Mb: no neighbourhood search ran")
	}

	check("objective row", "objective row", objectiveRowMIP(), ilp.WithoutHeuristic(ilp.Options{NodeLimit: 50}))

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m := unboundedMIP(rng)
		opts := ilp.Options{NodeLimit: 200}
		got := check("random", fmt.Sprintf("random %d", i), m, ilp.WithoutPresolve(opts))
		want, err := ilp.Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || (got.Status == ilp.StatusOptimal && math.Abs(got.Objective-want.Objective) > 1e-6*math.Max(1, math.Abs(want.Objective))) {
			t.Errorf("random %d: without presolve %v at %v, with it %v at %v", i, got.Status, got.Objective, want.Status, want.Objective)
		}
	}
	t.Logf("nodes closed by propagation, each LP-infeasible: %v", pruned)
	total := 0
	for _, group := range []string{"drift", "netcache", "random"} {
		if pruned[group] == 0 {
			t.Errorf("propagation closed no %s node", group)
		}
		total += pruned[group]
	}
	if total < 20 {
		t.Errorf("propagation closed %d nodes; the corpus should close at least 20", total)
	}
}

// objectiveRowMIP is an 8-variable MIP in unboundedMIP's shape plus its
// own objective as a row, bounded just below the LP optimum of the node
// x5 = 0 (−2.5): that node's LP is feasible within the simplex's phase-1
// tolerance, while the row misses its right-hand side by more than
// bound propagation once allowed, so propagation closed an LP-feasible
// node.
func objectiveRowMIP() *ilp.Model {
	m := ilp.NewModel("objective-row")
	x := []ilp.Var{
		m.AddBinary("x0"),
		m.AddInt("x1", 0, 4),
		m.AddInt("x2", 0, ilp.Inf),
		m.AddVar("x3", 0, ilp.Inf, ilp.Continuous),
		m.AddBinary("x4"),
		m.AddInt("x5", 0, 1),
		m.AddInt("x6", 0, ilp.Inf),
		m.AddVar("x7", 0, ilp.Inf, ilp.Continuous),
	}
	row := func(coef map[int]float64) ilp.Expr {
		e := ilp.NewExpr()
		for j, c := range coef {
			e.Add(x[j], c)
		}
		return e
	}
	obj := row(map[int]float64{0: -5, 2: 5, 3: 5, 4: 2, 5: 1, 6: 4, 7: 1})
	m.AddConstr("r0", row(map[int]float64{1: -1, 2: 3, 3: -3, 6: 1}), ilp.LE, 4.5)
	m.AddConstr("r1", row(map[int]float64{1: 3, 3: -2, 5: -3}), ilp.LE, 3)
	m.AddConstr("r2", row(map[int]float64{2: 3, 3: -3, 5: -3, 7: 1}), ilp.EQ, -1.5)
	m.AddConstr("r3", row(map[int]float64{1: -3, 2: -2, 3: 3}), ilp.LE, 4.5)
	m.AddConstr("r4", row(map[int]float64{1: -2, 3: -2, 4: 2, 5: 1}), ilp.LE, 8)
	m.AddConstr("r5", row(map[int]float64{0: -2, 4: -1, 5: 1, 6: 3}), ilp.LE, 7.5)
	m.AddConstr("r6", row(map[int]float64{0: -1, 4: 1, 5: -1}), ilp.LE, 0)
	m.AddConstr("objective", obj, ilp.LE, -2.5000025)
	m.SetObjective(obj, ilp.Minimize)
	return m
}

// unboundedMIP is a small random MIP: eight variables — binaries,
// bounded and unbounded integers, unbounded continuous ones — in six
// rows of three or four terms with mixed signs. Every cost on an
// unbounded variable is positive, so the minimum is finite.
func unboundedMIP(rng *rand.Rand) *ilp.Model {
	m := ilp.NewModel("unbounded-mip")
	vars := make([]ilp.Var, 8)
	obj := ilp.NewExpr()
	for j := range vars {
		switch j % 4 {
		case 0:
			vars[j] = m.AddBinary("b")
			obj.Add(vars[j], float64(rng.Intn(11)-5))
		case 1:
			vars[j] = m.AddInt("k", 0, float64(1+rng.Intn(6)))
			obj.Add(vars[j], float64(rng.Intn(11)-5))
		case 2:
			vars[j] = m.AddInt("n", 0, ilp.Inf)
			obj.Add(vars[j], float64(1+rng.Intn(5)))
		default:
			vars[j] = m.AddVar("c", 0, ilp.Inf, ilp.Continuous)
			obj.Add(vars[j], float64(1+rng.Intn(5)))
		}
	}
	for r := 0; r < 6; r++ {
		e := ilp.NewExpr()
		for _, j := range rng.Perm(len(vars))[:3+rng.Intn(2)] {
			c := float64(rng.Intn(7) - 3)
			if c == 0 {
				c = 1
			}
			e.Add(vars[j], c)
		}
		op := []ilp.Op{ilp.LE, ilp.GE, ilp.EQ}[rng.Intn(3)]
		m.AddConstr("row", e, op, float64(rng.Intn(13)-3)+0.5*float64(rng.Intn(2)))
	}
	m.SetObjective(obj, ilp.Minimize)
	return m
}
