package ilp

import (
	"math"
	"strings"
	"testing"
)

// TestRelGapSemantics pins the relative-gap formula the search stops
// on. The old max(1, |best|) denominator degraded to an *absolute* gap
// for incumbents inside the unit interval, so a near-zero incumbent
// could falsely satisfy Options.Gap against a bound that was
// relatively far away; these cases fail against that formula.
func TestRelGapSemantics(t *testing.T) {
	cases := []struct {
		name        string
		best, bound float64
		want        float64
	}{
		{"plain", 100, 97, 0.03},
		{"sign-symmetric", -100, -97, 0.03},
		{"converged-exact", 5, 5, 0},
		{"converged-within-tol", 5, 5 + 5e-10, 0},
		{"converged-at-zero", 0, 0, 0},
		// Pre-fix: |0.01-0|/max(1,0.01) = 0.01 <= Gap 0.03 declared
		// optimal at a 100% true relative gap.
		{"small-incumbent", 0.01, 0, 1},
		// Pre-fix: gap ~0.02 satisfied a 3% Gap with an incumbent six
		// orders of magnitude from the bound.
		{"zero-incumbent", 0, -0.02, math.Inf(1)},
		{"tiny-incumbent", 1e-6, -0.02, 0.020001 / 1e-6},
		// Straddling zero: gap > 1, never a false accept.
		{"straddle", 0.5, -0.5, 2},
	}
	for _, tc := range cases {
		got := relGap(tc.best, tc.bound)
		if math.IsInf(tc.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: relGap(%g, %g) = %g, want +Inf", tc.name, tc.best, tc.bound, got)
			}
			continue
		}
		if math.Abs(got-tc.want) > 1e-9*math.Max(1, tc.want) {
			t.Errorf("%s: relGap(%g, %g) = %g, want %g", tc.name, tc.best, tc.bound, got, tc.want)
		}
	}
}

// TestAchievedGapMatchesRelGap: the gap a Solution reports must be the
// same quantity the search certifies against Options.Gap — otherwise a
// caller auditing Stats.Gap would disagree with the solver's own
// stopping rule.
func TestAchievedGapMatchesRelGap(t *testing.T) {
	s := &Solution{Values: []float64{}, Objective: 0.01, BestBound: 0.05}
	if got, want := s.AchievedGap(), relGap(0.01, 0.05); got != want {
		t.Errorf("AchievedGap() = %g, relGap = %g", got, want)
	}
	s = &Solution{Values: []float64{}, Objective: 0, BestBound: 1}
	if !math.IsInf(s.AchievedGap(), 1) {
		t.Errorf("zero-objective AchievedGap() = %g, want +Inf", s.AchievedGap())
	}
	s = &Solution{Objective: 7, BestBound: 7}
	if !math.IsInf(s.AchievedGap(), 1) {
		t.Errorf("no-values AchievedGap() = %g, want +Inf", s.AchievedGap())
	}
}

// TestGapNotFalselySatisfiedNearZero solves a MIP whose optimum is
// tiny (0.25) but whose root bound is far away in relative terms; a
// 25% requested gap must NOT let the first incumbent at zero pass as
// optimal. Pre-fix, relGap(0, bound) = |bound| could satisfy the
// threshold the moment any incumbent existed.
func TestGapNotFalselySatisfiedNearZero(t *testing.T) {
	m := NewModel("nearzero")
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	// x and y conflict; only one fits. Utilities 0.25 and 0.2: every
	// objective this model can take lies inside the unit interval.
	m.AddConstr("conflict", Sum(x, y), LE, 1)
	obj := NewExpr()
	obj.Add(x, 0.25).Add(y, 0.2)
	m.SetObjective(obj, Maximize)
	sol, err := Solve(m, Options{Gap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-0.25) > 1e-6 {
		t.Fatalf("objective %g, want 0.25 (a sub-optimal incumbent slipped through the gap test)", sol.Objective)
	}
}

// TestWarmStartNonFinite: NaN/Inf entries in Options.Start are caller
// bugs (a corrupted warm-start pool) and must be rejected with an
// error naming the start and the variable — pre-fix they were silently
// projected and dropped, indistinguishable from an infeasible start. A
// finite, feasible start beside the bad one does not excuse it.
func TestWarmStartNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := correlatedKnapsack(8, 0)
		good := make([]float64, m.NumVars())
		start := make([]float64, m.NumVars())
		start[3] = bad
		_, err := Solve(m, Options{Start: valueStarts(good, start)})
		if err == nil {
			t.Fatalf("start containing %v accepted", bad)
		}
		if !strings.Contains(err.Error(), "start 1") || !strings.Contains(err.Error(), "x3") {
			t.Errorf("error %q does not name start 1 and the offending variable x3", err)
		}
	}
}
