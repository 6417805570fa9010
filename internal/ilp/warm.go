package ilp

// Warm primal restarts. A dive step fixes a batch of variables and
// re-solves. The previous step's optimal basis is a far better start
// than a slack basis plus artificials: only the basics the fix pushed
// outside their new bounds are out of place.
//
// Such a basic is handled by bound shifting. Its violated bound is moved
// to its current value, so the starting basis is primal feasible for the
// shifted problem, and phase 1 prices only that variable — cost +1 when
// it must come down, −1 when it must come up — driving it back toward
// its true bound. If it returns to within 1e-6, the true bound is
// restored and phase 2 runs with the model's costs from the basis phase 1
// left. The primal keeps the dive's vertex steering (see diveHeuristic):
// each step moves from the last vertex rather than from wherever a dual
// pivot path stops.
//
// Phase 1 is exact: the shifted problem contains the true one, and its
// phase-1 objective is the shifted variable itself, so an optimum that
// leaves it short of its true bound proves the LP infeasible.
//
// The restart takes an LP only when at most one basic variable is out of
// bounds: a single-variable dive fix, every single-fix retry of a failed
// batch, and a batch whose other fixes were already nonbasic. Several
// shifted basics make a phase 1 that stalls on the placement models'
// degenerate vertices (measured: NetCache batches shifting 7–22 basics
// spent 240–320 pivots without progress where the cold hinted solve
// took 38), so those LPs go cold at once. That and every doubt fall
// back to the cold two-phase path, counted in Effort.WarmFallbacks: a
// singular basis, an iteration error, an unbounded phase 1, or an
// attempt that has spent as many iterations as the model's own cold
// root LP took (standardForm.warmCap) — past that point the cold solve
// is the cheaper bet.

import "errors"

// solvePrimalWarm re-solves the LP under new bounds from snap, an
// optimal basis of the same model under other bounds. It returns
// ok=false when the attempt should fall back to the cold path;
// the only returned error is errDeadline.
func solvePrimalWarm(sf *standardForm, lo, hi []float64, iterLimit int, snap *basisSnapshot, ws *lpWorkspace) (lpStatus, float64, []float64, Effort, bool, error) {
	s, empty, err := installSnapshot(sf, lo, hi, snap, ws)
	if empty {
		return lpInfeasible, 0, nil, Effort{}, true, nil
	}
	if err != nil {
		return 0, 0, nil, s.effort(), false, nil
	}
	limit := iterLimit
	if sf.warmCap > 0 && (limit <= 0 || sf.warmCap < limit) {
		limit = sf.warmCap
	}

	// The basic variable the new bounds leave outside them, if any.
	r, above := -1, false
	for i, bj := range s.basis {
		if v := s.xB[i]; v > s.hi[bj]+feasTol || v < s.lo[bj]-feasTol {
			if r >= 0 {
				return 0, 0, nil, s.effort(), false, nil
			}
			r, above = i, v > s.hi[bj]
		}
	}
	if r >= 0 {
		j := s.basis[r]
		// Shift its violated bound to its value and price it back.
		phase2 := s.cost
		s.cost = ws.p1[:s.n]
		clear(s.cost)
		var bound float64
		if above {
			bound, s.hi[j] = s.hi[j], s.xB[r]
			s.cost[j] = 1
		} else {
			bound, s.lo[j] = s.lo[j], s.xB[r]
			s.cost[j] = -1
		}
		st, err := s.iterate(limit)
		if errors.Is(err, errDeadline) {
			return 0, 0, nil, s.effort(), false, err
		}
		if err != nil || st == lpUnbounded {
			return 0, 0, nil, s.effort(), false, nil
		}
		v := s.nbValue(int(j))
		if i := s.position(j); i >= 0 {
			v = s.xB[i]
		}
		if (above && v > bound+1e-6) || (!above && v < bound-1e-6) {
			return lpInfeasible, 0, nil, s.effort(), true, nil
		}
		// Restore the true bound. A variable that left the basis at its
		// shifted bound is within 1e-6 of the true one and moves onto it;
		// the refactorization re-checks the basics against the bounds.
		if above {
			s.hi[j] = bound
		} else {
			s.lo[j] = bound
		}
		if err := s.refactorize(); err != nil {
			return 0, 0, nil, s.effort(), false, nil
		}
		s.cost = phase2
	}
	st, err := s.iterate(limit)
	if errors.Is(err, errDeadline) {
		return 0, 0, nil, s.effort(), false, err
	}
	if err != nil {
		return 0, 0, nil, s.effort(), false, nil
	}
	if st == lpUnbounded {
		return lpUnbounded, 0, nil, s.effort(), true, nil
	}
	if err := s.refactorize(); err != nil {
		return 0, 0, nil, s.effort(), false, nil
	}
	x, obj := s.extract()
	ws.basisValid = true
	ws.pivotAge = 0
	return lpOptimal, obj, x, s.effort(), true, nil
}

// position returns the basis position of column j, or -1 when j is
// nonbasic.
func (s *simplex) position(j int32) int {
	for i, bj := range s.basis {
		if bj == j {
			return i
		}
	}
	return -1
}
