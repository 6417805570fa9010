package ilp

// Root presolve. lowerModel gathers the model's rows into the preRow
// intermediate form and, unless Options.disablePresolve is set, runs a
// fixpoint reduction pass over them before the standard-form columns
// are built:
//
//   - activity-based bound tightening: each row's residual capacity
//     implies bounds on every variable it touches (the generalization
//     of the old singleton-row fold to rows of any length);
//   - integer bound rounding: tightened bounds of integer variables are
//     rounded inward;
//   - fixed-variable substitution: a variable whose domain collapses to
//     a point is folded into the right-hand sides of its rows;
//   - redundant-row drop: a row satisfied by the bound box alone is
//     removed.
//
// The joint multi-tenant models are the motivating workload: their
// per-tenant floor/budget rows are full of singleton and near-singleton
// structure this collapses, shrinking the basis every branch-and-bound
// node factorizes.
//
// Reversibility is by construction: variables are never renumbered or
// eliminated (a fixed variable keeps its column with bounds [v, v]), so
// solutions, objective values, and gap certificates are already in the
// original model's coordinates. Dropped rows are redundant — implied by
// the surviving system — so no feasible point is cut and LP relaxation
// bounds remain sound for the MIP gap certificate.

import (
	"fmt"
	"math"
)

// PresolveStats reports the reductions the root presolve achieved.
type PresolveStats struct {
	// RowsDropped is the number of constraint rows removed as redundant
	// (implied by the variable bounds after tightening).
	RowsDropped int
	// BoundsTightened counts individual variable-bound improvements
	// derived from constraint activity (integer roundings included).
	BoundsTightened int
	// VarsFixed is the number of variables whose domain collapsed to a
	// single value and were substituted into their rows.
	VarsFixed int
}

// preRow is one constraint row in presolve's intermediate form. Terms
// are stored as parallel slices in Var order; substitution zeroes a
// term's coefficient rather than removing it.
type preRow struct {
	name    string
	vars    []int32
	coef    []float64
	op      Op
	rhs     float64
	dropped bool
}

// presolvePassLimit bounds the fixpoint iteration; every productive
// pass either fixes a variable, drops a row, or tightens a bound by a
// meaningful amount, so real models converge in a handful of passes.
const presolvePassLimit = 32

// presolveFixpoint reduces rows and the bounds in low to fixpoint (or
// the pass limit). It returns an error when the reductions prove the
// model infeasible; callers surface that as StatusInfeasible.
func presolveFixpoint(low *lowering, rows []preRow) (PresolveStats, error) {
	var stats PresolveStats
	fixedDone := make([]bool, low.nStruct)
	// Variables already fixed in the model itself are substituted on
	// the first pass but not counted as presolve reductions.
	preFixed := make([]bool, low.nStruct)
	for j := 0; j < low.nStruct; j++ {
		preFixed[j] = low.lo[j] == low.hi[j]
	}
	changed := true
	for pass := 0; changed && pass < presolvePassLimit; pass++ {
		changed = false
		// Substitute variables whose domain collapsed since last pass.
		var newlyFixed []int32
		for j := 0; j < low.nStruct; j++ {
			if !fixedDone[j] && low.lo[j] == low.hi[j] {
				fixedDone[j] = true
				if !preFixed[j] {
					stats.VarsFixed++
				}
				newlyFixed = append(newlyFixed, int32(j))
			}
		}
		if len(newlyFixed) > 0 {
			changed = true
			isFixed := func(v int32) bool {
				for _, f := range newlyFixed {
					if f == v {
						return true
					}
				}
				return false
			}
			for r := range rows {
				row := &rows[r]
				if row.dropped {
					continue
				}
				for k, v := range row.vars {
					if row.coef[k] != 0 && isFixed(v) {
						row.rhs -= row.coef[k] * low.lo[v]
						row.coef[k] = 0
					}
				}
			}
		}
		for r := range rows {
			row := &rows[r]
			if row.dropped {
				continue
			}
			rowChanged, err := presolveRow(low, row, &stats)
			if err != nil {
				return stats, err
			}
			changed = changed || rowChanged
		}
	}
	for j := 0; j < low.nStruct; j++ {
		if low.lo[j] > low.hi[j]+feasTol {
			return stats, fmt.Errorf("ilp: presolve empties the domain of variable %d: [%g, %g]", j, low.lo[j], low.hi[j])
		}
	}
	return stats, nil
}

// presolveRow applies the activity checks to one row: infeasibility
// detection, redundancy drop, and implied bound tightening for each of
// its variables. It reports whether anything changed.
func presolveRow(low *lowering, row *preRow, stats *PresolveStats) (bool, error) {
	act := activity(low.lo, low.hi, row.vars, row.coef)
	if act.infeasible(row.op, row.rhs) {
		return false, fmt.Errorf("ilp: presolve proves constraint %q infeasible over the variable bounds", row.name)
	}
	// redTol covers the slack integer rounding legitimately concedes
	// (dropping a row satisfied within it matches the tolerance the
	// scaled simplex enforces anyway).
	minAct, maxAct := act.bounds()
	redTol := 1e-9 + intTol*act.scale
	redundant := false
	switch row.op {
	case LE:
		redundant = maxAct <= row.rhs+redTol
	case GE:
		redundant = minAct >= row.rhs-redTol
	case EQ:
		redundant = maxAct <= row.rhs+redTol && minAct >= row.rhs-redTol
	}
	if redundant {
		row.dropped = true
		stats.RowsDropped++
		return true, nil
	}
	changed := false
	empty := impliedBounds(low.lo, low.hi, low.intVar, row.vars, row.coef, row.op, row.rhs, act, func(int32) {
		stats.BoundsTightened++
		changed = true
	})
	if empty >= 0 {
		return changed, fmt.Errorf("ilp: presolve of constraint %q empties the domain of variable %d", row.name, empty)
	}
	return changed, nil
}

// rowActivity is a row's activity range over a bound box. Lower bounds
// are finite by the Model invariant, so only +Inf upper bounds can make
// a contribution infinite: the minimum can pick up -Inf from negative
// coefficients, the maximum +Inf from positive ones. The finite parts
// and the infinite-term counts are kept apart so the "residual activity
// excluding one variable" stays defined when that variable carries the
// sole infinite term.
type rowActivity struct {
	minFin, maxFin   float64
	nMinInf, nMaxInf int
	scale            float64 // the largest |coefficient|
}

// activity sums the row vars·coef over the box lo/hi. The root presolve
// passes a preRow's terms, the tree's propagation a standard-form row.
func activity(lo, hi []float64, vars []int32, coef []float64) rowActivity {
	var act rowActivity
	for k, v := range vars {
		a := coef[k]
		if a == 0 {
			continue
		}
		act.scale = math.Max(act.scale, math.Abs(a))
		if a > 0 {
			act.minFin += a * lo[v]
			if math.IsInf(hi[v], 1) {
				act.nMaxInf++
			} else {
				act.maxFin += a * hi[v]
			}
		} else {
			act.maxFin += a * lo[v]
			if math.IsInf(hi[v], 1) {
				act.nMinInf++
			} else {
				act.minFin += a * hi[v]
			}
		}
	}
	return act
}

// bounds returns the row's minimum and maximum activity.
func (act rowActivity) bounds() (minAct, maxAct float64) {
	minAct, maxAct = act.minFin, act.maxFin
	if act.nMinInf > 0 {
		minAct = math.Inf(-1)
	}
	if act.nMaxInf > 0 {
		maxAct = math.Inf(1)
	}
	return minAct, maxAct
}

// infTol is how far the row's activity range may miss rhs before the
// row proves infeasibility. It is generous, since a false "infeasible"
// is a wrong answer: the phase-1 tolerance feasMass in units of the
// row's largest coefficient (the simplex divides each row by it), plus
// float noise relative to the right-hand side.
func (act rowActivity) infTol(rhs float64) float64 {
	return 1e-7*math.Max(1, math.Abs(rhs)) + feasMass*act.scale
}

// infeasible reports whether no point of the box satisfies "row op
// rhs" to within infTol.
func (act rowActivity) infeasible(op Op, rhs float64) bool {
	minAct, maxAct := act.bounds()
	infTol := act.infTol(rhs)
	switch op {
	case LE:
		return minAct > rhs+infTol
	case GE:
		return maxAct < rhs-infTol
	default:
		return minAct > rhs+infTol || maxAct < rhs-infTol
	}
}

// impliedBounds tightens lo/hi by what the row implies for each of its
// variables: for "sum <= rhs", variable j with coefficient a satisfies
// a*x_j <= rhs - minAct(others); for ">=" the mirror with
// maxAct(others); EQ rows imply both. act is the row's activity over
// the box before any of these tightenings. Bounds of variables marked
// in intVar are rounded inward (a nil intVar rounds none). moved is
// called once per bound that moves. The result is the first variable
// whose domain the row empties, or -1. The row empties a domain when
// it crosses by more than the row's infTol in the row's own units (the
// crossing times |a|): a smaller crossing is a violation the LP accepts.
func impliedBounds(lo, hi []float64, intVar []bool, vars []int32, coef []float64, op Op, rhs float64, act rowActivity, moved func(v int32)) int32 {
	infTol := act.infTol(rhs)
	for k, v := range vars {
		a := coef[k]
		if a == 0 || lo[v] == hi[v] {
			continue
		}
		// Near-zero coefficients relative to the row amplify activity
		// error when divided through; leave them to the simplex.
		if math.Abs(a) < 1e-7*act.scale {
			continue
		}
		isInt := intVar != nil && intVar[v]
		if op == LE || op == EQ {
			if resid, ok := residualActivity(lo, hi, v, a, act.minFin, act.nMinInf, true); ok {
				if tightenFromResidual(lo, hi, isInt, v, a, rhs-resid) {
					moved(v)
				}
			}
		}
		if op == GE || op == EQ {
			if resid, ok := residualActivity(lo, hi, v, a, act.maxFin, act.nMaxInf, false); ok {
				if tightenFromResidual(lo, hi, isInt, v, -a, -(rhs - resid)) {
					moved(v)
				}
			}
		}
		if (lo[v]-hi[v])*math.Abs(a) > infTol {
			return v
		}
	}
	return -1
}

// residualActivity returns the row's extreme activity excluding
// variable v's own term: the minimum when min is true, else the
// maximum. The second return is false when the residual is infinite
// (some other variable contributes an unbounded term).
func residualActivity(lo, hi []float64, v int32, a, finitePart float64, nInf int, min bool) (float64, bool) {
	// v's own extreme contribution, and whether it is the infinite one.
	var own float64
	ownInf := false
	if (a > 0) == min {
		own = a * lo[v] // finite by Model invariant
	} else {
		if math.IsInf(hi[v], 1) {
			ownInf = true
		} else {
			own = a * hi[v]
		}
	}
	if ownInf {
		if nInf == 1 {
			return finitePart, true
		}
		return 0, false
	}
	if nInf > 0 {
		return 0, false
	}
	return finitePart - own, true
}

// tightenFromResidual applies "a*x <= slack" to x's bounds (callers
// negate a and slack to express ">="), rounding the bound inward when
// isInt is set. It reports whether a bound moved meaningfully.
func tightenFromResidual(lo, hi []float64, isInt bool, v int32, a, slack float64) bool {
	bound := slack / a
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return false
	}
	if a > 0 {
		if isInt {
			bound = math.Floor(bound + intTol)
		}
		// Require meaningful improvement so float dust cannot spin the
		// fixpoint loop.
		if bound < hi[v]-1e-9*math.Max(1, math.Abs(hi[v])) {
			hi[v] = bound
			return true
		}
		return false
	}
	if isInt {
		bound = math.Ceil(bound - intTol)
	}
	if bound > lo[v]+1e-9*math.Max(1, math.Abs(lo[v])) {
		lo[v] = bound
		return true
	}
	return false
}
