package ilp

import (
	"testing"
	"time"
)

// These tests pin the in-LP deadline: Options.TimeLimit must interrupt
// a simplex run in flight, not merely stop the tree between nodes. The
// regression was a degenerate root relaxation — a warm re-solve of a
// joint multi-tenant model under a heavily re-weighted objective —
// burning 160k+ simplex iterations over minutes while the 15-second
// limit sat unchecked, because every deadline check lived between node
// expansions and the overrun happened inside the very first one.

// TestTimeLimitInterruptsPureLP: a pure LP has no branch-and-bound
// nodes at all, so before the in-LP check a TimeLimit could never fire
// and an already-expired limit still returned a fully solved optimum.
func TestTimeLimitInterruptsPureLP(t *testing.T) {
	m := NewModel("lp")
	obj := NewExpr()
	sum := NewExpr()
	for i := 0; i < 40; i++ {
		x := m.AddVar("x", 0, 10, Continuous)
		obj.Add(x, float64(i%7+1))
		sum.Add(x, 1)
	}
	m.AddConstr("cap", sum, LE, 55.5)
	m.SetObjective(obj, Maximize)
	sol, err := Solve(m, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Fatalf("expired TimeLimit returned %v, want %v", sol.Status, StatusLimit)
	}
	if sol.Values != nil {
		t.Fatalf("interrupted root LP produced values: %v", sol.Values)
	}
}

// TestTimeLimitInterruptsRootRelaxation: same property through the
// integer path — when the deadline expires inside the root relaxation
// the solve must report an honest limit stop (no incumbent exists yet)
// rather than an error or a complete root solve.
func TestTimeLimitInterruptsRootRelaxation(t *testing.T) {
	sol, err := Solve(correlatedKnapsack(30, 0), Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Fatalf("expired TimeLimit returned %v, want %v", sol.Status, StatusLimit)
	}
}

// TestTimeLimitStopsMidSearch: with a limit long enough to clear the
// root but far too short for the full tree, the solve must come back
// promptly (the in-LP check bounds each node's LP) and still carry
// whatever incumbent it found.
func TestTimeLimitStopsMidSearch(t *testing.T) {
	limit := 150 * time.Millisecond
	begin := time.Now()
	sol, err := Solve(correlatedKnapsack(60, 0), Options{TimeLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	if elapsed > 10*limit {
		t.Fatalf("solve ran %v against a %v limit", elapsed, limit)
	}
	if sol.Status != StatusLimit && sol.Status != StatusOptimal {
		t.Fatalf("unexpected status %v", sol.Status)
	}
}
