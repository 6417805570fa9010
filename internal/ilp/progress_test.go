package ilp

import (
	"math"
	"testing"
)

// knapsackModel builds a small MIP whose LP relaxation is fractional,
// forcing at least one branch (and therefore incumbent reporting).
func knapsackModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("knapsack")
	weights := []float64{3, 5, 7, 4, 6}
	values := []float64{4, 7, 9, 5, 8}
	obj := NewExpr()
	cap := NewExpr()
	for i := range weights {
		v := m.AddBinary("item")
		obj.Add(v, values[i])
		cap.Add(v, weights[i])
	}
	m.AddConstr("capacity", cap, LE, 13)
	m.SetObjective(obj, Maximize)
	return m
}

func TestProgressHookReportsSearchTrajectory(t *testing.T) {
	m := knapsackModel(t)
	var snaps []Progress
	sol, err := Solve(m, Options{
		Progress:      func(p Progress) { snaps = append(snaps, p) },
		progressEvery: 1, // heartbeat on every node
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if len(snaps) < 3 {
		t.Fatalf("got %d progress snapshots, want >= 3 (root, incumbent, done)", len(snaps))
	}
	kinds := map[ProgressKind]int{}
	for _, p := range snaps {
		kinds[p.Kind]++
	}
	if kinds[ProgressRoot] != 1 {
		t.Fatalf("root snapshots = %d, want 1", kinds[ProgressRoot])
	}
	if kinds[ProgressIncumbent] == 0 {
		t.Fatal("no incumbent snapshot delivered")
	}
	if kinds[ProgressDone] != 1 {
		t.Fatalf("done snapshots = %d, want 1", kinds[ProgressDone])
	}
	if snaps[0].Kind != ProgressRoot {
		t.Fatalf("first snapshot kind = %v, want root", snaps[0].Kind)
	}
	last := snaps[len(snaps)-1]
	if last.Kind != ProgressDone {
		t.Fatalf("last snapshot kind = %v, want done", last.Kind)
	}
	if !last.HasIncumbent || last.Incumbent != sol.Objective {
		t.Fatalf("done incumbent = %+v, solution objective %g", last, sol.Objective)
	}
	if last.Gap > 1e-6 {
		t.Fatalf("done gap = %g, want ~0 for a proven optimum", last.Gap)
	}
	// The root snapshot must report a bound at least as good as the
	// final objective (maximization: root bound >= optimum).
	if snaps[0].HasIncumbent {
		t.Fatal("root snapshot claims an incumbent")
	}
	if !math.IsInf(snaps[0].Gap, 1) {
		t.Fatalf("root gap = %g, want +Inf", snaps[0].Gap)
	}
	if snaps[0].BestBound < sol.Objective-1e-6 {
		t.Fatalf("root bound %g below optimum %g", snaps[0].BestBound, sol.Objective)
	}
	// Incumbents must be monotonically improving and never beat the
	// concurrent bound.
	prev := math.Inf(-1)
	for _, p := range snaps {
		if p.Kind != ProgressIncumbent {
			continue
		}
		if p.Incumbent < prev-1e-9 {
			t.Fatalf("incumbent regressed: %g after %g", p.Incumbent, prev)
		}
		prev = p.Incumbent
		if p.Incumbent > p.BestBound+1e-6 {
			t.Fatalf("incumbent %g exceeds bound %g", p.Incumbent, p.BestBound)
		}
	}
	// Counters must be populated and monotone.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Nodes < snaps[i-1].Nodes || snaps[i].SimplexIter < snaps[i-1].SimplexIter {
			t.Fatalf("non-monotone counters: %+v then %+v", snaps[i-1], snaps[i])
		}
	}
	if sol.Refactors == 0 {
		t.Fatal("solution reports zero basis refactorizations")
	}
	if last.Refactors != sol.Refactors {
		t.Fatalf("done snapshot refactorizations %d != solution %d", last.Refactors, sol.Refactors)
	}
	if last.SimplexIter != sol.SimplexIter {
		t.Fatalf("done snapshot iters %d != solution %d", last.SimplexIter, sol.SimplexIter)
	}
}

func TestProgressHookNilIsFree(t *testing.T) {
	// Solving with and without the hook must agree exactly (the hook
	// must not perturb the search).
	a, err := Solve(knapsackModel(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(knapsackModel(t), Options{Progress: func(Progress) {}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Nodes != b.Nodes || a.SimplexIter != b.SimplexIter {
		t.Fatalf("hooked solve diverged: %+v vs %+v", a, b)
	}
}

func TestProgressKindString(t *testing.T) {
	want := map[ProgressKind]string{
		ProgressRoot:      "root",
		ProgressIncumbent: "incumbent",
		ProgressNode:      "node",
		ProgressDone:      "done",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
