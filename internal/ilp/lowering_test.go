package ilp

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// sameSolve reports the first way got, the solve of a model that reused
// a lowering, differs from want, a fresh model's solve: every field but
// Lowered must be equal.
func sameSolve(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	if got.Lowered || !want.Lowered {
		t.Errorf("%s: lowered %v, fresh model lowered %v; want the lowering reused", label, got.Lowered, want.Lowered)
	}
	g := *got
	g.Lowered = want.Lowered
	switch {
	case !reflect.DeepEqual(g.Values, want.Values), g.Objective != want.Objective:
		t.Errorf("%s: objective %v, fresh %v (values %v, fresh %v)", label, got.Objective, want.Objective, got.Values, want.Values)
	case g.Effort != want.Effort, g.RootStart != want.RootStart:
		t.Errorf("%s: effort %+v root %s, fresh %+v root %s", label, got.Effort, got.RootStart, want.Effort, want.RootStart)
	case !reflect.DeepEqual(&g, want):
		t.Errorf("%s: solution differs from a fresh model's\n got %+v\nwant %+v", label, g, *want)
	}
}

// TestObjectiveCloneReusesLowering: a clone that changes only the
// objective solves on its parent's lowering and pooled workspace, and
// its solution is a fresh model's, cold and warm-started alike. The
// warm chain hands each re-solve the last one's root basis, which the
// pooled workspace last held, and a solve stopped by its time limit
// inside the root LP goes before the chain: the workspace must come
// back as good as new either way.
func TestObjectiveCloneReusesLowering(t *testing.T) {
	opts := Options{Gap: 1e-9}
	base := correlatedKnapsack(20, 0).Clone() // cloned, so it keeps its lowering
	first, err := Solve(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Lowered || first.Nodes <= 1 {
		t.Fatalf("first solve: lowered %v, %d nodes; want a lowering and a tree", first.Lowered, first.Nodes)
	}
	low := base.low.Load().low
	for _, bump := range []float64{1.5, 4} {
		fresh := correlatedKnapsack(20, bump)
		obj, sense := fresh.Objective()
		clone := base.Clone()
		clone.SetObjective(obj, sense)
		want, err := Solve(fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(clone, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, "cold", got, want)
	}

	stopped, err := Solve(base, Options{TimeLimit: time.Nanosecond})
	if err != nil || stopped.Status != StatusLimit {
		t.Fatalf("solve under a 1 ns limit: %v, %v; want a limit stop", stopped.Status, err)
	}
	warm := Options{Gap: 0.1}
	prev := first
	pooled := 0
	for i, bump := range []float64{0, 0.01, 0.01, 6, 0, 0} {
		fresh := correlatedKnapsack(20, bump)
		obj, sense := fresh.Objective()
		clone := base.Clone()
		clone.SetObjective(obj, sense)
		warm.Start = []Start{{Values: prev.Values, Basis: prev.RootBasis}}
		want, err := Solve(fresh, warm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(clone, warm)
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, fmt.Sprintf("warm re-solve %d (bump %v)", i, bump), got, want)
		if got.RootStart == RootPooled {
			pooled++
		}
		prev = got
	}
	if pooled == 0 {
		t.Error("no warm re-solve ended at its pooled root basis")
	}
	if base.low.Load().low != low {
		t.Error("the parent's lowering changed")
	}
}

// TestRowChangeRelowers: a clone given a row, a variable or new bounds
// lowers again, and its parent keeps and reuses its own lowering. A
// model never cloned keeps none.
func TestRowChangeRelowers(t *testing.T) {
	alone := correlatedKnapsack(12, 0)
	for range 2 {
		if sol, err := Solve(alone, Options{}); err != nil || !sol.Lowered {
			t.Fatalf("a model never cloned: lowered %v (%v), want a lowering per solve", sol.Lowered, err)
		}
	}
	if alone.low.Load() != nil {
		t.Error("a model never cloned keeps a lowering")
	}

	base := correlatedKnapsack(12, 0).Clone()
	if _, err := Solve(base, Options{}); err != nil {
		t.Fatal(err)
	}
	low := base.low.Load().low
	for _, tc := range []struct {
		name   string
		change func(*Model)
	}{
		{"AddConstr", func(m *Model) { m.AddConstr("pair", Sum(0, 1), LE, 1) }},
		{"AddVar", func(m *Model) { m.AddBinary("spare") }},
		{"SetBounds", func(m *Model) { m.SetBounds(3, 1, 1) }},
		{"SetBranchPriority", func(m *Model) { m.SetBranchPriority(2, 5) }},
	} {
		clone := base.Clone()
		tc.change(clone)
		sol, err := Solve(clone, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Lowered {
			t.Errorf("%s: the clone reused its parent's lowering", tc.name)
		}
		sol, err = Solve(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Lowered || base.low.Load().low != low {
			t.Errorf("%s: the parent lowered again (%v) or its lowering changed", tc.name, sol.Lowered)
		}
	}
}

// TestConcurrentClonesShareLowering: clones of one model solved at once
// share the lowering the first of them builds, and each solution is the
// one it has alone. Run under -race (make race).
func TestConcurrentClonesShareLowering(t *testing.T) {
	bumps := []float64{0, 1.5, 4, 7}
	want := make([]*Solution, len(bumps))
	for i, bump := range bumps {
		var err error
		if want[i], err = Solve(correlatedKnapsack(20, bump), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	base := correlatedKnapsack(20, 0)
	got := make([]*Solution, len(bumps))
	var wg sync.WaitGroup
	for i, bump := range bumps {
		obj, sense := correlatedKnapsack(20, bump).Objective()
		clone := base.Clone()
		clone.SetObjective(obj, sense)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := Solve(clone, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = sol
		}()
	}
	wg.Wait()
	lowered := 0
	for i := range bumps {
		if got[i] == nil {
			t.FailNow()
		}
		if got[i].Lowered {
			lowered++
		}
		got[i].Lowered = want[i].Lowered
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("clone %d: solution differs from the model solved alone", i)
		}
	}
	if lowered != 1 {
		t.Errorf("%d of %d concurrent solves lowered, want 1", lowered, len(bumps))
	}
}

// TestWorkspaceReset: reset leaves no basis resident, no pivots counted,
// the scratch that is all zero between uses zero, and no node of the
// finished search referenced, however the solve ended.
func TestWorkspaceReset(t *testing.T) {
	sf, err := lowerModel(correlatedKnapsack(8, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(sf)
	nd := &node{}
	ws.resident, ws.basisValid, ws.pivotAge = &basisSnapshot{}, true, 9
	ws.rhs[0], ws.cb[1], ws.alpha[2], ws.marked[3] = 1, 2, 3, true
	ws.touched = append(ws.touched, 3)
	ws.fac.work[0], ws.fac.mu[1], ws.fac.mark[0] = 4, 5, true
	ws.chain = append(ws.chain, nd)
	ws.prop.of, ws.prop.queued[0], ws.prop.head, ws.prop.n = nd, true, 1, 1
	ws.reset()
	zero := func(xs []float64) bool { return !slices.ContainsFunc(xs, func(x float64) bool { return x != 0 }) }
	switch {
	case ws.resident != nil, ws.basisValid, ws.pivotAge != 0:
		t.Error("a basis stays resident")
	case !zero(ws.rhs), !zero(ws.cb), !zero(ws.alpha), slices.Contains(ws.marked, true), len(ws.touched) != 0:
		t.Error("the ratio-test and solve scratch is not zero")
	case !zero(ws.fac.work), !zero(ws.fac.mu), slices.Contains(ws.fac.mark, true):
		t.Error("the factor's scratch is not zero")
	case len(ws.chain) != 0, ws.chain[:1][0] != nil, ws.prop.of != nil:
		t.Error("a node of the finished search is still referenced")
	case slices.Contains(ws.prop.queued, true), ws.prop.head != 0, ws.prop.n != 0:
		t.Error("the propagation queue is not empty")
	}
}
