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

// presolveFixpoint reduces rows and the bounds in sf to fixpoint (or
// the pass limit). It returns an error when the reductions prove the
// model infeasible; callers surface that as StatusInfeasible.
func presolveFixpoint(sf *standardForm, rows []preRow) (PresolveStats, error) {
	var stats PresolveStats
	fixedDone := make([]bool, sf.nStruct)
	// Variables already fixed in the model itself are substituted on
	// the first pass but not counted as presolve reductions.
	preFixed := make([]bool, sf.nStruct)
	for j := 0; j < sf.nStruct; j++ {
		preFixed[j] = sf.lo[j] == sf.hi[j]
	}
	changed := true
	for pass := 0; changed && pass < presolvePassLimit; pass++ {
		changed = false
		// Substitute variables whose domain collapsed since last pass.
		var newlyFixed []int32
		for j := 0; j < sf.nStruct; j++ {
			if !fixedDone[j] && sf.lo[j] == sf.hi[j] {
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
						row.rhs -= row.coef[k] * sf.lo[v]
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
			rowChanged, err := presolveRow(sf, row, &stats)
			if err != nil {
				return stats, err
			}
			changed = changed || rowChanged
		}
	}
	for j := 0; j < sf.nStruct; j++ {
		if sf.lo[j] > sf.hi[j]+feasTol {
			return stats, fmt.Errorf("ilp: presolve empties the domain of variable %d: [%g, %g]", j, sf.lo[j], sf.hi[j])
		}
	}
	return stats, nil
}

// presolveRow applies the activity checks to one row: infeasibility
// detection, redundancy drop, and implied bound tightening for each of
// its variables. It reports whether anything changed.
func presolveRow(sf *standardForm, row *preRow, stats *PresolveStats) (bool, error) {
	// Row activity range over the current bound box. Lower bounds are
	// finite by the Model invariant, so only +Inf upper bounds can make
	// a contribution infinite: minAct can pick up -Inf from negative
	// coefficients, maxAct +Inf from positive ones. The finite parts
	// and the infinite-term counts are tracked separately so the
	// "residual activity excluding one variable" below stays defined
	// when that variable carries the sole infinite term.
	minFin, maxFin := 0.0, 0.0
	nMinInf, nMaxInf := 0, 0
	scale := 0.0
	for k, v := range row.vars {
		a := row.coef[k]
		if a == 0 {
			continue
		}
		scale = math.Max(scale, math.Abs(a))
		if a > 0 {
			minFin += a * sf.lo[v]
			if math.IsInf(sf.hi[v], 1) {
				nMaxInf++
			} else {
				maxFin += a * sf.hi[v]
			}
		} else {
			maxFin += a * sf.lo[v]
			if math.IsInf(sf.hi[v], 1) {
				nMinInf++
			} else {
				minFin += a * sf.hi[v]
			}
		}
	}
	minAct, maxAct := minFin, maxFin
	if nMinInf > 0 {
		minAct = math.Inf(-1)
	}
	if nMaxInf > 0 {
		maxAct = math.Inf(1)
	}
	// Tolerances scale with the row: infTol is generous (a false
	// "infeasible" is a wrong answer), redTol covers the slack integer
	// rounding legitimately concedes (dropping a row satisfied within
	// it matches the tolerance the scaled simplex enforces anyway).
	infTol := 1e-7*math.Max(1, math.Abs(row.rhs)) + 1e-7*scale
	redTol := 1e-9 + intTol*scale

	infeasible := false
	redundant := false
	switch row.op {
	case LE:
		infeasible = minAct > row.rhs+infTol
		redundant = maxAct <= row.rhs+redTol
	case GE:
		infeasible = maxAct < row.rhs-infTol
		redundant = minAct >= row.rhs-redTol
	case EQ:
		infeasible = minAct > row.rhs+infTol || maxAct < row.rhs-infTol
		redundant = maxAct <= row.rhs+redTol && minAct >= row.rhs-redTol
	}
	if infeasible {
		return false, fmt.Errorf("ilp: presolve proves constraint %q infeasible over the variable bounds", row.name)
	}
	if redundant {
		row.dropped = true
		stats.RowsDropped++
		return true, nil
	}
	// Implied bounds: for "sum <= rhs", variable j with coefficient a
	// satisfies a*x_j <= rhs - minAct(others); for ">=" the mirror with
	// maxAct(others). EQ rows imply both.
	changed := false
	for k, v := range row.vars {
		a := row.coef[k]
		if a == 0 || sf.lo[v] == sf.hi[v] {
			continue
		}
		// Near-zero coefficients relative to the row amplify activity
		// error when divided through; leave them to the simplex.
		if math.Abs(a) < 1e-7*scale {
			continue
		}
		if row.op == LE || row.op == EQ {
			if resid, ok := residualActivity(sf, v, a, minFin, nMinInf, true); ok {
				if tightenFromResidual(sf, v, a, row.rhs-resid) {
					stats.BoundsTightened++
					changed = true
				}
			}
		}
		if row.op == GE || row.op == EQ {
			if resid, ok := residualActivity(sf, v, a, maxFin, nMaxInf, false); ok {
				if tightenFromResidual(sf, v, -a, -(row.rhs - resid)) {
					stats.BoundsTightened++
					changed = true
				}
			}
		}
		if sf.lo[v] > sf.hi[v]+feasTol {
			return changed, fmt.Errorf("ilp: presolve of constraint %q empties the domain of variable %d", row.name, v)
		}
	}
	return changed, nil
}

// residualActivity returns the row's extreme activity excluding
// variable v's own term: the minimum when min is true, else the
// maximum. The second return is false when the residual is infinite
// (some other variable contributes an unbounded term).
func residualActivity(sf *standardForm, v int32, a, finitePart float64, nInf int, min bool) (float64, bool) {
	// v's own extreme contribution, and whether it is the infinite one.
	var own float64
	ownInf := false
	if (a > 0) == min {
		own = a * sf.lo[v] // finite by Model invariant
	} else {
		if math.IsInf(sf.hi[v], 1) {
			ownInf = true
		} else {
			own = a * sf.hi[v]
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
// negate a and slack to express ">="), rounding integer bounds inward.
// It reports whether a bound moved meaningfully.
func tightenFromResidual(sf *standardForm, v int32, a, slack float64) bool {
	bound := slack / a
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return false
	}
	if a > 0 {
		if sf.intVar[v] {
			bound = math.Floor(bound + intTol)
		}
		// Require meaningful improvement so float dust cannot spin the
		// fixpoint loop.
		if bound < sf.hi[v]-1e-9*math.Max(1, math.Abs(sf.hi[v])) {
			sf.hi[v] = bound
			return true
		}
		return false
	}
	if sf.intVar[v] {
		bound = math.Ceil(bound - intTol)
	}
	if bound > sf.lo[v]+1e-9*math.Max(1, math.Abs(sf.lo[v])) {
		sf.lo[v] = bound
		return true
	}
	return false
}
