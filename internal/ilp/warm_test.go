package ilp

import (
	"errors"
	"math"
	"testing"
	"time"
)

// solveDiveChecked solves m with debugDives on, so every warm-restarted
// dive step is re-solved cold and must agree (diveSolve panics
// otherwise), and with debugInvariants as well when invariants is set.
func solveDiveChecked(t *testing.T, m *Model, opts Options, invariants bool) *Solution {
	t.Helper()
	debugChecks = debugDives
	if invariants {
		debugChecks |= debugInvariants
	}
	defer func() { debugChecks = 0 }()
	sol, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// twinColumnModel has two variables with identical constraint columns,
// x1 and x2, and an integer z the root LP leaves fractional: the root
// basis holds x1 = 3.5 and z = 4.5, with x2 nonbasic.
func twinColumnModel() *Model {
	m := NewModel("twins")
	x1 := m.AddVar("x1", 0, 5, Continuous)
	x2 := m.AddVar("x2", 0, 5, Continuous)
	z := m.AddInt("z", 0, 10)
	pair := NewExpr()
	pair.Add(x1, 1)
	pair.Add(x2, 1)
	m.AddConstr("pair", pair, LE, 3.5)
	all := NewExpr()
	all.Add(x1, 1)
	all.Add(x2, 1)
	all.Add(z, 1)
	m.AddConstr("all", all, LE, 8)
	obj := NewExpr()
	obj.Add(x1, 2)
	obj.Add(x2, 1)
	obj.Add(z, 1)
	m.SetObjective(obj, Maximize)
	return m
}

const twinX1, twinX2, twinZ = 0, 1, 2

// twinRoot solves the twin model's root LP cold and returns its standard
// form, bounds, workspace and optimal basis.
func twinRoot(t *testing.T) (*standardForm, []float64, []float64, *lpWorkspace, *basisSnapshot) {
	t.Helper()
	sf, err := lowerModel(twinColumnModel(), false)
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(sf)
	lo, hi := sf.cloneBounds()
	st, _, x, _, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, ws)
	if err != nil || st != lpOptimal {
		t.Fatalf("root LP: status %v, err %v", st, err)
	}
	if math.Abs(x[twinZ]-4.5) > 1e-9 {
		t.Fatalf("root LP left z = %v, want 4.5", x[twinZ])
	}
	return sf, lo, hi, ws, ws.captureBasis(sf)
}

// TestWarmRestartMatchesColdOnTwins: from the root basis, a restart
// that pushes the basic z out of bounds is repaired by bound shifting
// and reaches the cold solve's optimum; one whose bound z cannot reach
// is proved infeasible, as the cold solve finds. Neither falls back.
func TestWarmRestartMatchesColdOnTwins(t *testing.T) {
	for _, zLo := range []float64{5, 9} {
		sf, lo, hi, ws, snap := twinRoot(t)
		lo[twinZ] = zLo
		st, obj, _, counts, err := solveLP(sf, lo, hi, defaultIterLimit, nil, snap, restartPrimal, ws)
		if err != nil {
			t.Fatal(err)
		}
		cst, cobj, _, _, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, newWorkspace(sf))
		if err != nil {
			t.Fatal(err)
		}
		if st != cst || (st == lpOptimal && math.Abs(obj-cobj) > 1e-9) {
			t.Errorf("z >= %v: warm %v (objective %v), cold %v (objective %v)", zLo, st, obj, cst, cobj)
		}
		if counts.WarmRestarts != 1 || counts.WarmFallbacks != 0 {
			t.Errorf("z >= %v: %d warm restarts, %d fallbacks; want 1 and 0", zLo, counts.WarmRestarts, counts.WarmFallbacks)
		}
	}
}

// TestWarmRestartFallsBackOnDependentBasis corrupts the root basis: the
// basic z is swapped for x2, whose column duplicates the basic x1's, so
// the basis is singular. The restart must fall back to the cold solve,
// count the fallback apart from the dual path's, and reach the cold
// solve's answer.
func TestWarmRestartFallsBackOnDependentBasis(t *testing.T) {
	sf, lo, hi, ws, snap := twinRoot(t)
	pos := map[int32]int{}
	for i, bj := range snap.basis {
		pos[bj] = i
	}
	k, ok := pos[twinZ]
	if _, has := pos[twinX1]; !has || !ok || snap.status[twinX2] == inBasis {
		t.Fatalf("root basis %v does not hold x1 and z with x2 nonbasic", snap.basis)
	}
	bad := &basisSnapshot{
		basis:  append([]int32(nil), snap.basis...),
		status: append([]int8(nil), snap.status...),
	}
	bad.basis[k] = twinX2
	bad.status[twinZ], bad.status[twinX2] = nbLower, inBasis

	lo[twinZ] = 5
	st, obj, _, counts, err := solveLP(sf, lo, hi, defaultIterLimit, nil, bad, restartPrimal, ws)
	if err != nil {
		t.Fatal(err)
	}
	cst, cobj, _, _, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, newWorkspace(sf))
	if err != nil {
		t.Fatal(err)
	}
	if st != cst || obj != cobj {
		t.Fatalf("corrupted basis: %v / %v, cold %v / %v", st, obj, cst, cobj)
	}
	if counts.WarmFallbacks != 1 || counts.WarmRestarts != 0 || counts.PrimalFallbacks != 0 {
		t.Fatalf("singular basis: %d warm fallbacks, %d warm restarts, %d dual fallbacks; want 1, 0, 0",
			counts.WarmFallbacks, counts.WarmRestarts, counts.PrimalFallbacks)
	}
}

// TestDeadlineInterruptsWarmRestart: a deadline that has passed when a
// dive step restarts warm stops the step with errDeadline. It must not
// pass for a failed restart and send the LP down the cold path, and the
// dive gives up rather than continuing cold; Solve then reports the
// limit at its next between-node check.
func TestDeadlineInterruptsWarmRestart(t *testing.T) {
	sf, lo, hi, ws, snap := twinRoot(t)
	sf.deadline = time.Now().Add(-time.Second)
	lo[twinZ] = 5
	_, _, _, counts, err := solveLP(sf, lo, hi, defaultIterLimit, nil, snap, restartPrimal, ws)
	if !errors.Is(err, errDeadline) {
		t.Fatalf("warm restart past the deadline: err %v, want errDeadline", err)
	}
	if counts.WarmFallbacks != 0 || counts.SimplexIter != 0 {
		t.Fatalf("the deadline was taken for a failed restart: %d warm fallbacks, %d iterations", counts.WarmFallbacks, counts.SimplexIter)
	}

	sf, lo, hi, ws, snap = twinRoot(t)
	x := make([]float64, sf.nStruct)
	x[twinX1], x[twinZ] = 3.5, 4.5
	sf.deadline = time.Now().Add(-time.Second)
	var total Effort
	if _, _, ok := diveHeuristic(sf, lo, hi, x, snap, defaultIterLimit, &total, ws); ok {
		t.Fatalf("the dive found an incumbent past its deadline")
	}
	if total.WarmFallbacks != 0 || total.SimplexIter != 0 {
		t.Fatalf("dive past the deadline: %d warm fallbacks, %d iterations", total.WarmFallbacks, total.SimplexIter)
	}
}

// lowerModel lowers m afresh and views it under m's objective.
func lowerModel(m *Model, presolve bool) (*standardForm, error) {
	low, err := lower(m, presolve)
	if err != nil {
		return nil, err
	}
	return low.view(m), nil
}
