package ilp

import (
	"math"
	"testing"
)

func solveOK(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatalf("Solve(%s): %v", m.Name(), err)
	}
	return sol
}

func wantObj(t *testing.T, sol *Solution, want float64) {
	t.Helper()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEqual(sol.Objective, want, 1e-5*math.Max(1, math.Abs(want))) {
		t.Fatalf("objective = %g, want %g", sol.Objective, want)
	}
}

func TestLPBasicMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.
	// Optimum at (4, 0) -> 12.
	m := NewModel("basic")
	x := m.AddVar("x", 0, Inf, Continuous)
	y := m.AddVar("y", 0, Inf, Continuous)
	m.AddConstr("c1", Sum(x, y), LE, 4)
	e := NewExpr()
	e.Add(x, 1).Add(y, 3)
	m.AddConstr("c2", e, LE, 6)
	obj := NewExpr()
	obj.Add(x, 3).Add(y, 2)
	m.SetObjective(obj, Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 12)
	if !almostEqual(sol.Value(x), 4, 1e-6) || !almostEqual(sol.Value(y), 0, 1e-6) {
		t.Errorf("solution = (%g, %g), want (4, 0)", sol.Value(x), sol.Value(y))
	}
}

func TestLPMinWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x - y <= 2, x,y >= 0.
	// y >= (x-2); minimize pushes to x+y = 10. Cost 2x+3(10-x) = 30 - x;
	// maximize x subject to x - y <= 2 and y = 10-x -> x <= 6 -> obj 24.
	m := NewModel("ge")
	x := m.AddVar("x", 0, Inf, Continuous)
	y := m.AddVar("y", 0, Inf, Continuous)
	m.AddConstr("cover", Sum(x, y), GE, 10)
	e := NewExpr()
	e.Add(x, 1).Add(y, -1)
	m.AddConstr("diff", e, LE, 2)
	obj := NewExpr()
	obj.Add(x, 2).Add(y, 3)
	m.SetObjective(obj, Minimize)
	sol := solveOK(t, m)
	wantObj(t, sol, 24)
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 8, x in [0, 10], y in [0, 3].
	// Best: y = 3, x = 2 -> 5.
	m := NewModel("eq")
	x := m.AddVar("x", 0, 10, Continuous)
	y := m.AddVar("y", 0, 3, Continuous)
	e := NewExpr()
	e.Add(x, 1).Add(y, 2)
	m.AddConstr("bal", e, EQ, 8)
	m.SetObjective(Sum(x, y), Minimize)
	sol := solveOK(t, m)
	wantObj(t, sol, 5)
}

func TestLPBoundedVariables(t *testing.T) {
	// max x + y with 1 <= x <= 3, 2 <= y <= 5, x + y <= 7.
	m := NewModel("bounds")
	x := m.AddVar("x", 1, 3, Continuous)
	y := m.AddVar("y", 2, 5, Continuous)
	m.AddConstr("cap", Sum(x, y), LE, 7)
	m.SetObjective(Sum(x, y), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 7)
	if sol.Value(x) < 1-1e-6 || sol.Value(x) > 3+1e-6 {
		t.Errorf("x = %g outside its bounds", sol.Value(x))
	}
}

func TestLPNonzeroLowerBounds(t *testing.T) {
	// min x + y with x >= 2, y >= 3 and no constraints: optimum 5.
	m := NewModel("shift")
	x := m.AddVar("x", 2, Inf, Continuous)
	y := m.AddVar("y", 3, Inf, Continuous)
	m.SetObjective(Sum(x, y), Minimize)
	sol := solveOK(t, m)
	wantObj(t, sol, 5)
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel("infeasible")
	x := m.AddVar("x", 0, 1, Continuous)
	m.AddConstr("impossible", Term(x, 1), GE, 5)
	m.SetObjective(Term(x, 1), Minimize)
	sol := solveOK(t, m)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPConflictingRows(t *testing.T) {
	m := NewModel("conflict")
	x := m.AddVar("x", 0, Inf, Continuous)
	y := m.AddVar("y", 0, Inf, Continuous)
	m.AddConstr("hi", Sum(x, y), GE, 10)
	m.AddConstr("lo", Sum(x, y), LE, 5)
	m.SetObjective(Sum(x, y), Minimize)
	sol := solveOK(t, m)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel("unbounded")
	x := m.AddVar("x", 0, Inf, Continuous)
	m.SetObjective(Term(x, 1), Maximize)
	sol := solveOK(t, m)
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestLPObjectiveConstant(t *testing.T) {
	m := NewModel("const")
	x := m.AddVar("x", 0, 2, Continuous)
	obj := Term(x, 1)
	obj.AddExpr(Const(10), 1)
	m.SetObjective(obj, Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 12)
}

func TestLPDegenerate(t *testing.T) {
	// Classic degenerate corner: multiple constraints meet at optimum.
	m := NewModel("degenerate")
	x := m.AddVar("x", 0, Inf, Continuous)
	y := m.AddVar("y", 0, Inf, Continuous)
	m.AddConstr("a", Sum(x, y), LE, 1)
	m.AddConstr("b", Term(x, 1), LE, 1)
	m.AddConstr("c", Term(y, 1), LE, 1)
	e := NewExpr()
	e.Add(x, 1).Add(y, 1)
	m.AddConstr("d", e, LE, 1) // duplicate of a
	m.SetObjective(Sum(x, y), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 1)
}

func TestMIPKnapsack(t *testing.T) {
	// Knapsack: values 60,100,120; weights 10,20,30; cap 50 -> 220.
	m := NewModel("knapsack")
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	items := make([]Var, 3)
	w := NewExpr()
	obj := NewExpr()
	for i := range items {
		items[i] = m.AddBinary("item")
		w.Add(items[i], wts[i])
		obj.Add(items[i], vals[i])
	}
	m.AddConstr("cap", w, LE, 50)
	m.SetObjective(obj, Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 220)
	if sol.Value(items[0]) != 0 || sol.Value(items[1]) != 1 || sol.Value(items[2]) != 1 {
		t.Errorf("selection = %v %v %v, want 0 1 1",
			sol.Value(items[0]), sol.Value(items[1]), sol.Value(items[2]))
	}
}

func TestMIPIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5).
	m := NewModel("round")
	x := m.AddInt("x", 0, 100)
	m.AddConstr("cap", Term(x, 2), LE, 7)
	m.SetObjective(Term(x, 1), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 3)
}

func TestMIPInfeasibleIntegrality(t *testing.T) {
	// 2x = 5 has no integer solution.
	m := NewModel("parity")
	x := m.AddInt("x", 0, 10)
	m.AddConstr("odd", Term(x, 2), EQ, 5)
	m.SetObjective(Term(x, 1), Maximize)
	sol := solveOK(t, m)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMIPAssignment(t *testing.T) {
	// 3x3 assignment problem with known optimum.
	cost := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	m := NewModel("assign")
	var x [3][3]Var
	obj := NewExpr()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = m.AddBinary("x")
			obj.Add(x[i][j], cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		m.AddConstr("row", Sum(x[i][0], x[i][1], x[i][2]), EQ, 1)
		m.AddConstr("col", Sum(x[0][i], x[1][i], x[2][i]), EQ, 1)
	}
	m.SetObjective(obj, Minimize)
	sol := solveOK(t, m)
	wantObj(t, sol, 5) // 1 + 2 + 2
	if err := Verify(m, sol.Values); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestMIPEitherOr(t *testing.T) {
	// Exclusion constraint shape used heavily by the P4All ILP:
	// xa + xb <= 1 per stage, maximize placements.
	m := NewModel("exclusion")
	const stages = 4
	var xa, xb [stages]Var
	obj := NewExpr()
	for s := 0; s < stages; s++ {
		xa[s] = m.AddBinary("a")
		xb[s] = m.AddBinary("b")
		m.AddConstr("excl", Sum(xa[s], xb[s]), LE, 1)
		obj.Add(xa[s], 1)
		obj.Add(xb[s], 1)
	}
	m.AddConstr("a-once", Sum(xa[:]...), LE, 1)
	m.AddConstr("b-once", Sum(xb[:]...), LE, 1)
	m.SetObjective(obj, Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 2)
}

func TestSolveRespectsNodeLimit(t *testing.T) {
	m := hardMIP(12)
	sol, err := Solve(m, Options{NodeLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit && sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want limit or optimal", sol.Status)
	}
	if sol.Nodes > 3 {
		t.Errorf("nodes = %d, want <= 3 under NodeLimit 2 (+heuristic)", sol.Nodes)
	}
}

// hardMIP builds an n-variable equality knapsack that forces branching.
func hardMIP(n int) *Model {
	m := NewModel("hard")
	e := NewExpr()
	obj := NewExpr()
	for i := 0; i < n; i++ {
		v := m.AddBinary("v")
		e.Add(v, float64(2*i+3))
		obj.Add(v, float64(i%5+1))
	}
	m.AddConstr("weight", e, LE, float64(3*n))
	m.SetObjective(obj, Maximize)
	return m
}

func TestVerifyCatchesViolations(t *testing.T) {
	m := NewModel("verify")
	x := m.AddInt("x", 0, 5)
	m.AddConstr("cap", Term(x, 1), LE, 3)
	if err := Verify(m, []float64{4}); err == nil {
		t.Error("Verify accepted a constraint violation")
	}
	if err := Verify(m, []float64{2.5}); err == nil {
		t.Error("Verify accepted a non-integral integer variable")
	}
	if err := Verify(m, []float64{-1}); err == nil {
		t.Error("Verify accepted a bound violation")
	}
	if err := Verify(m, []float64{3}); err != nil {
		t.Errorf("Verify rejected a valid assignment: %v", err)
	}
	if err := Verify(m, []float64{1, 2}); err == nil {
		t.Error("Verify accepted a wrong-length assignment")
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel("panics")
	mustPanic(t, "infinite lower bound", func() { m.AddVar("bad", math.Inf(-1), 0, Continuous) })
	mustPanic(t, "empty domain", func() { m.AddVar("bad", 3, 2, Continuous) })
	x := m.AddVar("x", 0, 1, Continuous)
	mustPanic(t, "unknown var in constraint", func() {
		other := NewModel("other")
		y := other.AddVar("y", 0, 1, Continuous)
		_ = y
		m.AddConstr("bad", Term(Var(99), 1), LE, 1)
	})
	mustPanic(t, "SetBounds empty", func() { m.SetBounds(x, 2, 1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestBinaryBoundsClamped(t *testing.T) {
	m := NewModel("clamp")
	b := m.AddVar("b", -5, 9, Binary)
	lo, hi := m.VarBounds(b)
	if lo != 0 || hi != 1 {
		t.Errorf("binary bounds = [%g, %g], want [0, 1]", lo, hi)
	}
}

func TestExprArithmetic(t *testing.T) {
	e := NewExpr()
	e.Add(Var(0), 2).Add(Var(1), -1).AddExpr(Const(3), 1)
	other := Term(Var(0), 1)
	e.AddExpr(other, 2) // +2*x0
	if e.coef[Var(0)] != 4 {
		t.Errorf("coef x0 = %g, want 4", e.coef[Var(0)])
	}
	if got := e.Eval([]float64{1, 2}); got != 4-2+3 {
		t.Errorf("Eval = %g, want 5", got)
	}
	e.Add(Var(1), 1) // cancels to zero -> term dropped
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1 after cancellation", e.Len())
	}
}

// TestExprEvalReproducible: an expression whose terms round differently
// in different orders evaluates, every time, to the constant plus its
// terms in ascending Var order, bit for bit.
func TestExprEvalReproducible(t *testing.T) {
	e := Const(0.1)
	values := make([]float64, 64)
	for i := range values {
		e.Add(Var(i), 1/float64(3+i)+float64(i%7)*1e3)
		values[i] = float64(i%5)*0.7 + 0.3
	}
	want := 0.1
	for i, v := range values {
		want += (1/float64(3+i) + float64(i%7)*1e3) * v
	}
	for k := 0; k < 200; k++ {
		if got := e.Eval(values); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("evaluation %d: %v, want the ascending-order sum %v", k, got, want)
		}
	}
}

func TestEmptyModel(t *testing.T) {
	m := NewModel("empty")
	sol := solveOK(t, m)
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective != 0 {
		t.Errorf("objective = %g, want 0", sol.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	m := NewModel("fixed")
	x := m.AddVar("x", 3, 3, Continuous)
	y := m.AddVar("y", 0, 10, Continuous)
	e := NewExpr()
	e.Add(x, 1).Add(y, 1)
	m.AddConstr("sum", e, LE, 8)
	m.SetObjective(Sum(x, y), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 8)
	if !almostEqual(sol.Value(x), 3, 1e-6) {
		t.Errorf("x = %g, want fixed 3", sol.Value(x))
	}
}

func TestSolveTimeLimit(t *testing.T) {
	m := hardMIP(16)
	sol, err := Solve(m, Options{TimeLimit: 1}) // 1ns: expires immediately
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestGapTermination(t *testing.T) {
	m := hardMIP(14)
	exact, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(m, Options{Gap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Values == nil {
		t.Fatal("gap run returned no solution")
	}
	// The gap solution must be within 25% of the true optimum.
	if loose.Objective < exact.Objective*0.75-1e-6 {
		t.Errorf("gap solution %g too far below optimum %g", loose.Objective, exact.Objective)
	}
	if loose.AchievedGap() > 0.25+1e-9 {
		t.Errorf("achieved gap %g above requested 0.25", loose.AchievedGap())
	}
}

func TestBoundsReported(t *testing.T) {
	m := hardMIP(10)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// For maximization: root LP bound >= integer optimum = best bound.
	if sol.RootBound < sol.Objective-1e-6 {
		t.Errorf("root bound %g below optimum %g", sol.RootBound, sol.Objective)
	}
	if !almostEqual(sol.BestBound, sol.Objective, 1e-6*math.Max(1, math.Abs(sol.Objective))) {
		t.Errorf("best bound %g != objective %g at optimality", sol.BestBound, sol.Objective)
	}
	if sol.AchievedGap() > 1e-9 {
		t.Errorf("achieved gap %g at proven optimality", sol.AchievedGap())
	}
}

func TestSolveRootLPOnly(t *testing.T) {
	// max x+y s.t. x+y <= 1.5, binaries: LP gives 1.5, MIP 1.
	m := NewModel("rootlp")
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	m.AddConstr("cap", Sum(x, y), LE, 1.5)
	m.SetObjective(Sum(x, y), Maximize)
	mip := solveOK(t, m)
	if !almostEqual(mip.RootBound, 1.5, 1e-6) {
		t.Errorf("root LP = %g, want 1.5", mip.RootBound)
	}
	wantObj(t, mip, 1)
}

func TestBranchPriorityHonored(t *testing.T) {
	// Two fractional vars; the prioritized one must be branched first.
	// We can't observe branching directly, but priority must not break
	// correctness on a model where both orders reach the optimum.
	m := NewModel("prio")
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	e := NewExpr()
	e.Add(x, 2).Add(y, 2)
	m.AddConstr("cap", e, LE, 3)
	m.SetObjective(Sum(x, y), Maximize)
	m.SetBranchPriority(y, 5)
	sol := solveOK(t, m)
	wantObj(t, sol, 1)
}

func TestManyEqualityRows(t *testing.T) {
	// Chained equalities force a unique solution; exercises artificial
	// variables and phase 1.
	m := NewModel("chain")
	const n = 24
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddVar("v", 0, 100, Continuous)
	}
	m.AddConstr("base", Term(vars[0], 1), EQ, 7)
	for i := 1; i < n; i++ {
		e := NewExpr()
		e.Add(vars[i], 1).Add(vars[i-1], -1)
		m.AddConstr("step", e, EQ, 1)
	}
	m.SetObjective(Term(vars[n-1], 1), Minimize)
	sol := solveOK(t, m)
	wantObj(t, sol, 7+n-1)
}

func TestLargeCoefficientScale(t *testing.T) {
	// Mixed magnitudes like the compiler's memory constraints
	// (coefficients ~1e6 beside binaries).
	m := NewModel("scale")
	mem := m.AddVar("mem", 0, 2e6, Continuous)
	x := m.AddBinary("x")
	e := Term(mem, 1)
	e.Add(x, -1835008)
	m.AddConstr("coloc", e, LE, 0)
	m.SetObjective(Term(mem, 1), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 1835008)
}

func TestPresolveSingletonRows(t *testing.T) {
	// Singleton rows must fold into bounds without changing optima.
	build := func() *Model {
		m := NewModel("singleton")
		x := m.AddInt("x", 0, 100)
		y := m.AddVar("y", 0, 100, Continuous)
		m.AddConstr("xcap", Term(x, 2), LE, 15) // x <= 7 (int floor 7.5)
		m.AddConstr("ylo", Term(y, -1), LE, -3) // y >= 3
		m.AddConstr("yhi", Term(y, 4), LE, 50)  // y <= 12.5
		e := NewExpr()
		e.Add(x, 1).Add(y, 1)
		m.AddConstr("joint", e, LE, 18)
		obj := NewExpr()
		obj.Add(x, 1).Add(y, 1)
		m.SetObjective(obj, Maximize)
		return m
	}
	withPre := solveOK(t, build())
	withoutPre, err := Solve(build(), Options{disablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(withPre.Objective, withoutPre.Objective, 1e-6) {
		t.Errorf("presolve changed the optimum: %g vs %g", withPre.Objective, withoutPre.Objective)
	}
	wantObj(t, withPre, 18) // x=7, y=11 (joint binds)
}

func TestPresolveDetectsEmptyDomain(t *testing.T) {
	m := NewModel("empty-domain")
	x := m.AddInt("x", 0, 10)
	m.AddConstr("lo", Term(x, 1), GE, 8)
	m.AddConstr("hi", Term(x, 1), LE, 3)
	m.SetObjective(Term(x, 1), Maximize)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestPresolveIntegerRounding(t *testing.T) {
	// 3x <= 10 on an integer: presolve must floor the bound to 3.
	m := NewModel("intround")
	x := m.AddInt("x", 0, 100)
	m.AddConstr("cap", Term(x, 3), LE, 10)
	m.SetObjective(Term(x, 1), Maximize)
	sol := solveOK(t, m)
	wantObj(t, sol, 3)
}
