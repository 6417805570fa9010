package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randModel builds a random bounded MIP: n integer variables with
// finite boxes, dense-ish <=/>=/== rows, maximize a positive-ish
// objective. Coefficients are small integers so optima are exactly
// representable and tie-breaking differences surface as equal
// objective values, not noise.
func randModel(rng *rand.Rand, n, mrows int) *Model {
	m := NewModel(fmt.Sprintf("rand-%d-%d", n, mrows))
	vars := make([]Var, n)
	for i := range vars {
		lo := float64(rng.Intn(3))
		hi := lo + float64(1+rng.Intn(9))
		vars[i] = m.AddInt(fmt.Sprintf("x%d", i), lo, hi)
	}
	for r := 0; r < mrows; r++ {
		e := NewExpr()
		sum := 0.0
		for i, v := range vars {
			if rng.Intn(3) == 0 {
				continue
			}
			c := float64(rng.Intn(7) - 2) // [-2, 4]
			if c == 0 {
				continue
			}
			e.Add(v, c)
			_, hi := m.VarBounds(vars[i])
			if c > 0 {
				sum += c * hi
			}
		}
		if len(e.coef) == 0 {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			m.AddConstr(fmt.Sprintf("ge%d", r), e, GE, -float64(rng.Intn(20)))
		default:
			// Mostly <= rows with an rhs below the max activity so the
			// row can actually bind.
			m.AddConstr(fmt.Sprintf("le%d", r), e, LE, sum*(0.3+0.4*rng.Float64()))
		}
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(v, float64(1+rng.Intn(5)))
	}
	m.SetObjective(obj, Maximize)
	return m
}

// TestDualMatchesPrimalRandomized solves randomized MIPs with the dual
// re-solve path enabled and disabled; the proven optima must agree.
// This is the core soundness check for basis-inheriting dual simplex:
// any wrong verdict (a child declared infeasible that is not, or a
// wrong LP bound) shifts the integer optimum.
func TestDualMatchesPrimalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		mr := 2 + rng.Intn(8)
		m := randModel(rng, n, mr)
		ref, err := Solve(m, Options{disableDual: true})
		if err != nil {
			t.Fatalf("trial %d (primal): %v", trial, err)
		}
		got, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("trial %d (dual): %v", trial, err)
		}
		if got.Status != ref.Status {
			t.Fatalf("trial %d: status %v (dual) vs %v (primal)\n%s", trial, got.Status, ref.Status, m)
		}
		if ref.Status != StatusOptimal {
			continue
		}
		if !almostEqual(got.Objective, ref.Objective, 1e-6) {
			t.Fatalf("trial %d: objective %g (dual) vs %g (primal)\n%s", trial, got.Objective, ref.Objective, m)
		}
	}
}

// TestDualStatusParityInfeasible branches should report infeasibility
// identically whether detected by the dual ray or by primal phase 1.
func TestDualStatusParityInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		m := randModel(rng, 4+rng.Intn(5), 3+rng.Intn(5))
		// Append a contradictory pair over the first variable to force
		// infeasibility somewhere in the tree (often at the root, but
		// with the GE row loose enough occasionally only in subtrees).
		x := Var(0)
		cut := 3 + rng.Intn(4)
		m.AddConstr("forcege", Term(x, 1), GE, float64(cut))
		m.AddConstr("forcele", Term(x, 1), LE, float64(cut)-1)
		ref, err := Solve(m, Options{disableDual: true})
		if err != nil {
			t.Fatalf("trial %d (primal): %v", trial, err)
		}
		got, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("trial %d (dual): %v", trial, err)
		}
		if got.Status != ref.Status {
			t.Fatalf("trial %d: status %v (dual) vs %v (primal)", trial, got.Status, ref.Status)
		}
		if ref.Status != StatusInfeasible {
			t.Fatalf("trial %d: expected infeasible, got %v", trial, ref.Status)
		}
	}
}

// TestDualStatusParityUnbounded verifies an unbounded relaxation is
// reported as such regardless of the re-solve path.
func TestDualStatusParityUnbounded(t *testing.T) {
	m := NewModel("unbounded")
	x := m.AddVar("x", 0, Inf, Continuous)
	y := m.AddInt("y", 0, 5)
	e := NewExpr()
	e.Add(x, -1).Add(y, 1)
	m.AddConstr("link", e, LE, 3)
	obj := NewExpr()
	obj.Add(x, 1).Add(y, 1)
	m.SetObjective(obj, Maximize)
	for _, opts := range []Options{{}, {disableDual: true}} {
		sol, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusUnbounded {
			t.Fatalf("opts %+v: status = %v, want unbounded", opts, sol.Status)
		}
	}
}

// TestPresolveReversibility checks that presolve is invisible in the
// reported solution: optimum, per-variable values, and gap certificate
// all come back in original model coordinates and match a
// presolve-disabled solve, while the stats show reductions happened.
func TestPresolveReversibility(t *testing.T) {
	m := NewModel("reducible")
	x := m.AddInt("x", 0, 100)
	y := m.AddInt("y", 0, 100)
	z := m.AddVar("z", 0, 50, Continuous)
	w := m.AddInt("w", 2, 90)
	// Singleton rows: tighten x and force w to a fixed value.
	m.AddConstr("xcap", Term(x, 3), LE, 25)       // x <= 8 after rounding
	m.AddConstr("wlo", Term(w, 1), GE, 7)         // w >= 7
	m.AddConstr("whi", Term(w, 1), LE, 7)         // w == 7 -> fixed
	m.AddConstr("redundant", Term(y, 1), LE, 1e4) // always slack -> dropped
	e := NewExpr()
	e.Add(x, 1).Add(y, 2).Add(z, 1).Add(w, 1)
	m.AddConstr("joint", e, LE, 40)
	obj := NewExpr()
	obj.Add(x, 3).Add(y, 2).Add(z, 1).Add(w, 1)
	m.SetObjective(obj, Maximize)

	with, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Solve(m, Options{disablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Status != StatusOptimal || without.Status != StatusOptimal {
		t.Fatalf("status: %v / %v", with.Status, without.Status)
	}
	if !almostEqual(with.Objective, without.Objective, 1e-6) {
		t.Fatalf("presolve changed the optimum: %g vs %g", with.Objective, without.Objective)
	}
	if len(with.Values) != m.NumVars() {
		t.Fatalf("solution has %d values, want %d (original coordinates)", len(with.Values), m.NumVars())
	}
	if got := with.Value(w); math.Abs(got-7) > 1e-6 {
		t.Fatalf("fixed variable w = %g, want 7", got)
	}
	if g := with.AchievedGap(); g > 1e-9 {
		t.Fatalf("gap certificate %g not closed in original coordinates", g)
	}
	pre := with.Presolve
	if pre.RowsDropped == 0 || pre.BoundsTightened == 0 || pre.VarsFixed == 0 {
		t.Fatalf("presolve stats show no reductions: %+v", pre)
	}
	if off := without.Presolve; off.RowsDropped != 0 || off.BoundsTightened != 0 || off.VarsFixed != 0 {
		t.Fatalf("disablePresolve still reports reductions: %+v", off)
	}
}

// TestDualDeterministicBitStable runs a model that exercises dual
// re-solves under Deterministic mode: 10 repeats at 4 threads must be
// bit-identical, and the solve must actually take the dual path.
func TestDualDeterministicBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randModel(rng, 10, 8)
	opts := Options{Deterministic: true, Threads: 4}
	ref, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DualIters == 0 {
		t.Fatalf("solve took no dual iterations; test is vacuous (%d nodes)", ref.Nodes)
	}
	for run := 1; run < 10; run++ {
		got, err := Solve(m, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got.Objective != ref.Objective {
			t.Fatalf("run %d: objective %v != %v", run, got.Objective, ref.Objective)
		}
		for i := range ref.Values {
			if got.Values[i] != ref.Values[i] {
				t.Fatalf("run %d: value[%d] %v != %v", run, i, got.Values[i], ref.Values[i])
			}
		}
		if got.Nodes != ref.Nodes || got.SimplexIters != ref.SimplexIters || got.DualIters != ref.DualIters {
			t.Fatalf("run %d: effort (%d,%d,%d) != (%d,%d,%d)", run,
				got.Nodes, got.SimplexIters, got.DualIters,
				ref.Nodes, ref.SimplexIters, ref.DualIters)
		}
	}
}

// TestFinisherMatchesSortedGroup: the unsorted pick of the entering
// column is the sorted walk's first group choice — the same column, or
// none when that group holds no finisher. Ratios come from a small set
// (exact ties, ties within 1e-9, NaN) and so do |alpha| and ranges, so
// every tie-break is exercised.
func TestFinisherMatchesSortedGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ratios := []float64{0, 0, 5e-10, 1e-9, 2e-9, 0.5, 1, math.NaN()}
	alphas := []float64{-2, -1, -0.5, 0.5, 1, 2}
	ranges := []float64{0.25, 1, 3, math.Inf(1)}
	const cols = 40
	lo, hi := make([]float64, cols), make([]float64, cols)
	var picked, none int
	for trial := 0; trial < 5000; trial++ {
		for j := range lo {
			hi[j] = lo[j] + ranges[rng.Intn(len(ranges))]
		}
		var cands []dualCand
		lead := -1
		for _, j := range rng.Perm(cols)[:1+rng.Intn(cols)] {
			r := ratios[rng.Intn(len(ratios))]
			if math.IsNaN(r) && rng.Intn(4) != 0 {
				r = 0
			}
			cands = append(cands, dualCand{j: int32(j), alpha: alphas[rng.Intn(len(alphas))], ratio: r})
			if lead < 0 || compareCands(cands[len(cands)-1], cands[lead]) < 0 {
				lead = len(cands) - 1
			}
		}
		need := float64(rng.Intn(8)) / 2

		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, compareCands)
		groupEnd := 1
		for groupEnd < len(sorted) && sorted[groupEnd].ratio <= sorted[0].ratio+1e-9 {
			groupEnd++
		}
		want, bestAbs := -1, 0.0
		for k := 0; k < groupEnd; k++ {
			c := sorted[k]
			a := math.Abs(c.alpha)
			if r := hi[c.j] - lo[c.j]; (math.IsInf(r, 1) || r*a >= need-feasTol) && a > bestAbs {
				want, bestAbs = k, a
			}
		}

		got := finisher(cands, lead, need, lo, hi)
		switch {
		case want < 0 && got < 0:
			none++
		case want < 0 || got < 0:
			t.Fatalf("trial %d: finisher %d, sorted walk %d", trial, got, want)
		case cands[got].j != sorted[want].j:
			t.Fatalf("trial %d: finisher picks column %d, sorted walk %d", trial, cands[got].j, sorted[want].j)
		default:
			picked++
		}
	}
	if picked == 0 || none == 0 {
		t.Fatalf("%d picks and %d groups without a finisher: both paths must be exercised", picked, none)
	}
}
