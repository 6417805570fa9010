package ilp

import (
	"fmt"
	"math"
	"testing"
)

// correlatedKnapsack builds a two-constraint maximize knapsack whose
// values track its weights and whose capacities are fractional — the
// root relaxation is fractional and a cold solve has to open a real
// tree.
func correlatedKnapsack(n int, bump float64) *Model {
	m := NewModel("knapsack")
	obj := NewExpr()
	w1 := NewExpr()
	w2 := NewExpr()
	t1, t2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := m.AddBinary(fmt.Sprintf("x%d", i))
		a := float64(2*i + 3)
		b := float64((i*7)%11 + 2)
		v := a + b + float64(i%3) + bump*float64(i%5)
		obj.Add(x, v)
		w1.Add(x, a)
		w2.Add(x, b)
		t1 += a
		t2 += b
	}
	m.AddConstr("cap1", w1, LE, 0.5*t1-0.7)
	m.AddConstr("cap2", w2, LE, 0.6*t2-0.3)
	m.SetObjective(obj, Maximize)
	return m
}

// valueStarts makes one MIP start, without a basis, of each assignment.
func valueStarts(values ...[]float64) []Start {
	starts := make([]Start, len(values))
	for i, v := range values {
		starts[i] = Start{Values: v}
	}
	return starts
}

// TestWarmStartLessWork re-solves a perturbed model seeded with the
// previous solution and requires the warm search to spend strictly
// fewer simplex iterations than the cold search of the same model, the
// cold one's dive and neighbourhood search included. (Nodes no longer
// tell the two apart: the cold search's neighbourhood search finds a
// point within the gap, so both end at the root.)
func TestWarmStartLessWork(t *testing.T) {
	base := correlatedKnapsack(20, 0)
	cold0, err := Solve(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold0.Status != StatusOptimal {
		t.Fatalf("base solve: %v", cold0.Status)
	}
	if cold0.WarmStarted {
		t.Fatal("cold solve reported WarmStarted")
	}

	// Perturb the objective (the elastic controller's re-weighting
	// scenario: same feasible region, shifted utility) and re-solve at
	// the compiler's default 3% certified gap — the configuration every
	// core.Compile solve actually runs with.
	pert := correlatedKnapsack(20, 0.25)
	cold, err := Solve(pert, Options{Gap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(pert, Options{Gap: 0.03, Start: valueStarts(cold0.Values)})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve did not install the MIP start")
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm solve: %v", warm.Status)
	}
	if warm.AchievedGap() > 0.03+1e-9 {
		t.Fatalf("warm solve certified gap %g > 0.03", warm.AchievedGap())
	}
	if warm.SimplexIter >= cold.SimplexIter {
		t.Fatalf("warm solve took %d simplex iterations, cold %d; want warm < cold", warm.SimplexIter, cold.SimplexIter)
	}
	t.Logf("cold %d nodes, %d iterations (neighbourhood %d); warm %d nodes, %d iterations",
		cold.Nodes, cold.SimplexIter, cold.NeighbourIters, warm.Nodes, warm.SimplexIter)
}

// TestWarmStartGapTermination checks that an incumbent within the
// requested gap of the root bound stops the search at the root.
func TestWarmStartGapTermination(t *testing.T) {
	m := correlatedKnapsack(20, 0)
	exact, err := Solve(m, Options{Gap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(m, Options{Start: valueStarts(exact.Values), Gap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || warm.Status != StatusOptimal {
		t.Fatalf("warm=%v status=%v", warm.WarmStarted, warm.Status)
	}
	if warm.Nodes != 1 {
		t.Fatalf("gap-satisfied warm start explored %d nodes, want 1", warm.Nodes)
	}
}

// TestWarmStartProjection: fractional and out-of-bounds entries are
// rounded and clamped before the feasibility check.
func TestWarmStartProjection(t *testing.T) {
	// The LP relaxation of this model is fractional (x+y = 6.5), so the
	// solve must branch — the start actually matters.
	// 6.4 rounds to 6; 99 clamps to 10 — but 2*(6+10) > 13, infeasible,
	// so the start is dropped and the solve proceeds cold.
	sol, err := Solve(projModel(), Options{Start: valueStarts([]float64{6.4, 99})})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStarted {
		t.Fatal("infeasible projected start was installed")
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-6) > 1e-6 {
		t.Fatalf("status=%v obj=%g", sol.Status, sol.Objective)
	}
	// A feasible fractional start survives projection: [5.2, 0.9]
	// rounds to [5, 1], weight 12 <= 13.
	sol, err = Solve(projModel(), Options{Start: valueStarts([]float64{5.2, 0.9})})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted {
		t.Fatal("feasible projected start was not installed")
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-6) > 1e-6 {
		t.Fatalf("status=%v obj=%g", sol.Status, sol.Objective)
	}
}

// projModel is TestWarmStartProjection's model: maximize x + y subject
// to 2x + 2y <= 13 over integers in [0, 10]. The optimum is 6 and the
// root LP bound 6.5.
func projModel() *Model {
	m := NewModel("proj")
	x := m.AddInt("x", 0, 10)
	y := m.AddInt("y", 0, 10)
	w := NewExpr()
	w.Add(x, 2).Add(y, 2)
	m.AddConstr("weight", w, LE, 13)
	obj := NewExpr()
	obj.Add(x, 1).Add(y, 1)
	m.SetObjective(obj, Maximize)
	return m
}

// TestWarmStartPicksBest: of several MIP starts, infeasible ones are
// skipped, the best objective under the model being solved is
// installed, and a tie goes to the earlier start. The 10% gap accepts
// any objective-6 start at the root (against the 6.5 bound), so the
// returned assignment is the installed start itself.
func TestWarmStartPicksBest(t *testing.T) {
	cases := []struct {
		name   string
		starts [][]float64
		warm   bool
		index  int
		values []float64
	}{
		{"infeasible skipped", [][]float64{{6.4, 99}, {5, 1}}, true, 1, []float64{5, 1}},
		{"better wins", [][]float64{{1, 1}, {5, 1}}, true, 1, []float64{5, 1}},
		{"tie to earlier", [][]float64{{1, 5}, {5, 1}}, true, 0, []float64{1, 5}},
		{"tie to earlier, swapped", [][]float64{{5, 1}, {1, 5}}, true, 0, []float64{5, 1}},
		{"none feasible", [][]float64{{6.4, 99}, {10, 10}}, false, 0, nil},
	}
	for _, tc := range cases {
		sol, err := Solve(projModel(), Options{Start: valueStarts(tc.starts...), Gap: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.WarmStarted != tc.warm || (tc.warm && sol.StartIndex != tc.index) {
			t.Errorf("%s: warm %v start %d, want warm %v start %d", tc.name, sol.WarmStarted, sol.StartIndex, tc.warm, tc.index)
		}
		if tc.values != nil && (sol.Values[0] != tc.values[0] || sol.Values[1] != tc.values[1]) {
			t.Errorf("%s: values %v, want the installed start %v", tc.name, sol.Values, tc.values)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-6) > 1e-6 {
			t.Errorf("%s: status %v objective %g, want optimal 6", tc.name, sol.Status, sol.Objective)
		}
	}
}

// TestWarmRootStopReportsRootBound: a start accepted within the gap at
// the root is proven only up to the root LP bound, so that is what the
// solution's BestBound, its gap and the start's incumbent event report
// — not the incumbent itself, which would claim a 0 % gap.
func TestWarmRootStopReportsRootBound(t *testing.T) {
	var events []Progress
	sol, err := Solve(projModel(), Options{
		Start:    valueStarts([]float64{5, 1}),
		Gap:      0.1,
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted || sol.Nodes != 1 || sol.Status != StatusOptimal {
		t.Fatalf("warm %v, %d nodes, %v; want a warm stop at the root", sol.WarmStarted, sol.Nodes, sol.Status)
	}
	if math.Abs(sol.RootBound-6.5) > 1e-9 {
		t.Fatalf("root bound %g, want 6.5", sol.RootBound)
	}
	if sol.BestBound != sol.RootBound {
		t.Errorf("BestBound %g, want the root bound %g", sol.BestBound, sol.RootBound)
	}
	if got, want := sol.AchievedGap(), 0.5/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("gap %g, want %g", got, want)
	}
	for _, p := range events {
		if p.Kind == ProgressIncumbent && p.BestBound != sol.RootBound {
			t.Errorf("incumbent event bound %g, want the root bound %g", p.BestBound, sol.RootBound)
		}
	}
}

// TestWarmStartBadLength: a wrong-sized start vector is an error, not
// a silent misalignment.
func TestWarmStartBadLength(t *testing.T) {
	m := correlatedKnapsack(8, 0)
	if _, err := Solve(m, Options{Start: valueStarts([]float64{1, 0})}); err == nil {
		t.Fatal("expected error for mismatched start length")
	}
}
