package ilp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// knapsackCap is correlatedKnapsack(20, 0) with its first capacity set
// to frac of the total weight: the same columns and rows, another
// right-hand side.
func knapsackCap(frac float64) *Model {
	m := NewModel("knapsack")
	obj, w1, w2 := NewExpr(), NewExpr(), NewExpr()
	t1, t2 := 0.0, 0.0
	for i := 0; i < 20; i++ {
		x := m.AddBinary(fmt.Sprintf("x%d", i))
		a := float64(2*i + 3)
		b := float64((i*7)%11 + 2)
		obj.Add(x, a+b+float64(i%3))
		w1.Add(x, a)
		w2.Add(x, b)
		t1 += a
		t2 += b
	}
	m.AddConstr("cap1", w1, LE, frac*t1-0.7)
	m.AddConstr("cap2", w2, LE, 0.6*t2-0.3)
	m.SetObjective(obj, Maximize)
	return m
}

// TestPooledRootSameModel: a solve's root basis passed back with its
// values to a re-solve of the same model is optimal there, so the root
// LP ends after its one pricing pass, with the cold root's objective.
// When the start leaves a gap to close, the tree searched from that
// root, with no dive, still finds the cold optimum.
func TestPooledRootSameModel(t *testing.T) {
	opts := Options{Gap: 0.03}
	cold, err := Solve(correlatedKnapsack(20, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.RootStart != RootCold || cold.RootBasis == nil {
		t.Fatalf("cold solve: root %q, basis %v; want a cold root and its basis", cold.RootStart, cold.RootBasis)
	}
	opts.Start = []Start{{Values: cold.Values, Basis: cold.RootBasis}}
	warm, err := Solve(correlatedKnapsack(20, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.RootStart != RootPooled || warm.RootIters > 1 {
		t.Fatalf("re-solve: root %q in %d iterations; want pooled in at most 1", warm.RootStart, warm.RootIters)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*math.Abs(cold.Objective) ||
		math.Abs(warm.RootBound-cold.RootBound) > 1e-9*math.Abs(cold.RootBound) {
		t.Errorf("re-solve: objective %v, root bound %v; cold %v, %v", warm.Objective, warm.RootBound, cold.Objective, cold.RootBound)
	}

	// An empty knapsack is feasible but far from optimal: the search runs
	// on from the pooled root.
	exact := Options{}
	coldExact, err := Solve(correlatedKnapsack(20, 0), exact)
	if err != nil {
		t.Fatal(err)
	}
	exact.Start = []Start{{Values: make([]float64, 20), Basis: cold.RootBasis}}
	search, err := Solve(correlatedKnapsack(20, 0), exact)
	if err != nil {
		t.Fatal(err)
	}
	if search.RootStart != RootPooled || search.Nodes <= 1 {
		t.Fatalf("search: root %q, %d nodes; want a pooled root and a tree", search.RootStart, search.Nodes)
	}
	if math.Abs(search.Objective-coldExact.Objective) > 1e-9*math.Abs(coldExact.Objective) {
		t.Errorf("search from a pooled root: objective %v, cold %v", search.Objective, coldExact.Objective)
	}
	if search.DiveIters != 0 {
		t.Errorf("search from a pooled root: %d dive iterations; a solve with an installed start runs no dive", search.DiveIters)
	}
}

// TestPooledRootRejected: a basis of another model's shape, and one the
// right-hand side moved out of primal feasibility, are rejected with
// their reason, and the solve is the one without a basis.
func TestPooledRootRejected(t *testing.T) {
	opts := Options{Gap: 0.03}
	small, err := Solve(correlatedKnapsack(8, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Solve(knapsackCap(0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]float64, 20)
	for _, tc := range []struct {
		name  string
		model *Model
		basis *Basis
		want  string
	}{
		{"wrong shape", knapsackCap(0.5), small.RootBasis, "rejected (shape)"},
		{"right-hand side moved", knapsackCap(0.25), wide.RootBasis, "rejected (not primal feasible)"},
	} {
		bare := opts
		bare.Start = []Start{{Values: empty}}
		want, err := Solve(tc.model, bare)
		if err != nil {
			t.Fatal(err)
		}
		pooled := opts
		pooled.Start = []Start{{Values: empty, Basis: tc.basis}}
		got, err := Solve(tc.model, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if got.RootStart != tc.want {
			t.Errorf("%s: root %q, want %q", tc.name, got.RootStart, tc.want)
		}
		got.RootStart = want.RootStart
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the solve with a rejected basis differs from the solve without it", tc.name)
		}
	}
}
