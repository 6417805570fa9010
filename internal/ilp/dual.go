package ilp

// Dual-simplex child re-solves. After branch and bound tightens a
// single variable bound, the parent node's optimal basis is no longer
// primal feasible (the branched variable, or basics depending on it,
// may sit outside the new bounds) but it IS still dual feasible: the
// reduced costs depend only on the cost vector and the basis, neither
// of which the branch touched. A dual simplex started from that basis
// restores primal feasibility in a handful of pivots, where the primal
// path must re-run phase 1 with artificials from scratch — this is the
// standard trick that makes node throughput the unit of performance in
// production MILP solvers.
//
// The driver below is a bounded-variable dual simplex with the
// long-step ("bound-flip") ratio test: nonbasic candidates whose dual
// ratio is passed before the infeasibility is absorbed flip to their
// opposite finite bound instead of entering, which both shortens the
// pivot count on box-dominated models (ours: memory words, ALU slots)
// and is the cheap part of what Harris-style ratio tests buy.
//
// Fallbacks are deliberate: on any structural or numerical doubt —
// basis singular under the child bounds, reduced costs not dual
// feasible, pivot too small, iteration budget exhausted, drift that
// will not settle — the solve returns ok=false and solveLP falls back
// to the primal-with-artificials path, counting the fallback so obs
// can surface a regression. Only two verdicts are trusted from here:
// lpOptimal with a verified-feasible basis, and lpInfeasible from dual
// unboundedness (no admissible entering column while a basic variable
// sits outside its bounds — the exact Farkas certificate).

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"time"
)

// basisSnapshot is an optimal basis captured from a solved node LP:
// the basic column per row plus every structural and slack column's
// status. Artificial columns are never captured (capture is refused
// while one is basic), which is what keeps snapshots inheritable — a
// dual re-solve introduces no artificials of its own. Snapshots are
// immutable once captured and are shared by both children of a branch.
type basisSnapshot struct {
	basis  []int32
	status []int8
}

// captureBasis snapshots the workspace's current basis for inheritance
// by child nodes, and marks it resident so an immediately following
// dual re-solve on this workspace can skip the refactorization. It
// returns nil when the workspace does not hold a clean optimal basis,
// or when an artificial column is still basic (degenerate phase-1
// leftovers pinned at zero).
func (ws *lpWorkspace) captureBasis(sf *standardForm) *basisSnapshot {
	if !ws.basisValid {
		return nil
	}
	n := sf.nStruct + sf.m
	for _, bj := range ws.basis[:sf.m] {
		if int(bj) >= n {
			return nil
		}
	}
	snap := &basisSnapshot{
		basis:  append([]int32(nil), ws.basis[:sf.m]...),
		status: append([]int8(nil), ws.status[:n]...),
	}
	ws.resident = snap
	return snap
}

// installSnapshot builds a simplex over the structural and slack
// columns under the bounds lo/hi, priced with the model's costs, and
// starts it from snap: the basic values are recomputed for the new
// bounds, so basics may sit outside them. When the snapshot is still
// resident on this workspace — the LP follows the one that captured it,
// back to back in one chain — the factors are already here and only
// the basic values move. Residency is decided by the search (chain
// starts invalidate), so it is a structural property of the tree.
// empty reports a variable with
// lo > hi (the LP is infeasible whatever the basis); a non-nil error
// means the snapshot cannot start this LP: errInfiniteNonbasic when a
// nonbasic column rests on an infinite bound, errSingularBasis when the
// basis does not factor.
// s and its counters are valid in every case but empty.
func installSnapshot(sf *standardForm, lo, hi []float64, snap *basisSnapshot, ws *lpWorkspace) (s *simplex, empty bool, err error) {
	s, empty = newSimplex(sf, lo, hi, refactorEvery, ws)
	if empty {
		ws.invalidate()
		return nil, true, nil
	}
	s.modelCosts()
	resident := ws.resident == snap && ws.basisValid && ws.pivotAge < s.refEvery
	ws.invalidate()
	if !resident {
		copy(s.basis, snap.basis)
		copy(s.status, snap.status)
	}
	// A nonbasic column must rest on a finite bound under the new
	// bounds. Structural lower bounds are finite by the Model invariant
	// and bounds only tighten down the tree, so this only trips on a
	// corrupted snapshot — bail rather than divide by infinity.
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if (st == nbLower && math.IsInf(s.lo[j], -1)) || (st == nbUpper && math.IsInf(s.hi[j], 1)) {
			return s, false, errInfiniteNonbasic
		}
	}
	if resident {
		s.pivots = ws.pivotAge
		s.computeXB()
	} else if err := s.refactorizeBasis(); err != nil {
		return s, false, err
	}
	return s, false, nil
}

// errInfiniteNonbasic reports a snapshot that leaves a nonbasic column on
// an infinite bound under the bounds it is installed with.
var errInfiniteNonbasic = errors.New("ilp: nonbasic column on an infinite bound")

// dualCand is one admissible entering candidate of a dual ratio test.
type dualCand struct {
	j     int32
	alpha float64 // pivot row entry (e_rᵀB⁻¹)·A_j
	ratio float64 // |reduced cost| / |alpha|
}

// compareCands orders ratio-test candidates by (ratio, column index),
// a NaN ratio first.
func compareCands(a, b dualCand) int {
	if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
		return c
	}
	return cmp.Compare(a.j, b.j)
}

// finisher returns the index of the candidate that enters when the
// leader's breakpoint group can absorb the whole infeasibility need: the
// group member with the largest |alpha| whose range covers need, ties
// going to the least (ratio, j). It returns -1 when no member can.
func finisher(cands []dualCand, lead int, need float64, lo, hi []float64) int {
	best, bestAbs := -1, 0.0
	limit := cands[lead].ratio + 1e-9
	for k := range cands {
		c := &cands[k]
		if k != lead && !(c.ratio <= limit) { // a NaN limit admits the leader alone
			continue
		}
		a := math.Abs(c.alpha)
		if rng := hi[c.j] - lo[c.j]; math.IsInf(rng, 1) || rng*a >= need-feasTol {
			if a > bestAbs || (a == bestAbs && best >= 0 && compareCands(*c, cands[best]) < 0) {
				best, bestAbs = k, a
			}
		}
	}
	return best
}

// pivotAgree is the relative difference tolerated between the two
// computations of a dual pivot element. On healthy factors they agree to
// 1e-11 or better; on drifted ones they differ by their whole magnitude.
const pivotAgree = 1e-6

// maxDualIters bounds one dual re-solve relative to the basis size. A
// healthy re-solve after a single bound tighten needs a handful of
// pivots; the cap is a safety net against degenerate cycling, not a
// tuning knob — cutting it tight backfires, because a truncated dual
// attempt pays its pivots AND a cold two-phase primal on the same
// node. The grouped ratio test above keeps degenerate placement LPs
// from churning, so a generous multiple of m is almost never reached.
func maxDualIters(m int) int { return 2*m + 200 }

// solveDual re-solves the LP from an inherited dual-feasible basis.
// Returns ok=false when the attempt should fall back to the primal
// path (the partial state left in ws is invalidated). The only
// returned error is errDeadline.
func solveDual(sf *standardForm, lo, hi []float64, iterLimit int, snap *basisSnapshot, ws *lpWorkspace) (lpStatus, float64, []float64, Effort, bool, error) {
	m := sf.m
	n := sf.nStruct + m
	s, empty, err := installSnapshot(sf, lo, hi, snap, ws)
	if empty {
		return lpInfeasible, 0, nil, Effort{}, true, nil
	}
	if err != nil {
		return 0, 0, nil, s.effort(), false, nil
	}

	// Verify dual feasibility of the inherited basis before trusting
	// it: yᵀ = cBᵀ·B⁻¹, and every nonbasic reduced cost must carry the
	// sign its bound status requires. The branch did not change costs,
	// so failure here means numerical damage — fall back.
	y := s.ws.y[:m]
	d := s.ws.d[:n]
	if !s.computeDuals(y, d) {
		return 0, 0, nil, s.effort(), false, nil
	}

	maxIters := maxDualIters(m)
	if iterLimit > 0 && maxIters > iterLimit {
		maxIters = iterLimit
	}
	cleanupTries := 0
	for {
		if !sf.deadline.IsZero() && s.iters%deadlineCheckEvery == 0 &&
			time.Now().After(sf.deadline) {
			return 0, 0, nil, s.effort(), false, errDeadline
		}
		// Leaving row: the most primal-infeasible basic variable.
		r := -1
		dir := 0.0 // +1: xB[r] must rise to its lower bound; -1: fall to upper
		worst := feasTol
		for i := 0; i < m; i++ {
			bj := s.basis[i]
			if v := s.lo[bj] - s.xB[i]; v > worst {
				worst, r, dir = v, i, 1
			}
			if v := s.xB[i] - s.hi[bj]; v > worst {
				worst, r, dir = v, i, -1
			}
		}
		if r == -1 {
			// Primal feasible; dual feasibility is invariant, so this is
			// optimal — but the incremental xB may have drifted. Verify
			// against a freshly recomputed xB before extracting; renewed
			// infeasibility resumes the iteration (bounded times).
			s.computeXB()
			clean := true
			for i, bj := range s.basis {
				if s.xB[i] < s.lo[bj]-feasTol || s.xB[i] > s.hi[bj]+feasTol {
					clean = false
					break
				}
			}
			if clean {
				break
			}
			cleanupTries++
			if cleanupTries > 3 {
				return 0, 0, nil, s.effort(), false, nil
			}
			if err := s.refactorizeBasis(); err != nil {
				return 0, 0, nil, s.effort(), false, nil
			}
			continue
		}
		s.iters++
		if s.iters > maxIters || (ws.race != nil && int64(s.iters) > ws.race.primal.Load()) {
			return 0, 0, nil, s.effort(), false, nil // a raced root past P has lost
		}
		out := s.basis[r]
		target := s.lo[out]
		if dir < 0 {
			target = s.hi[out]
		}
		// Admissible entering candidates from the pivot row
		// alpha_j = rho·A_j, rho = e_rᵀ·B⁻¹: moving x_j from its bound
		// must push xB[r] toward target (∂xB[r]/∂x_j = -alpha_j), and the
		// dual ratio |d_j|/|alpha_j| is how far the duals can move before
		// j's reduced cost changes sign. rho is sparse, so the row is
		// accumulated from the rows of A where it is non-zero.
		// Only the columns those rows touch are scattered into alpha,
		// listed in ws.touched and reset to zero as they are read back.
		rho := ws.rho[:m]
		ws.cb[r] = 1
		ws.fac.btran(ws.cb[:m], rho)
		dropResidue(rho) // or residue times a unit coefficient passes for a pivot
		alpha, touched, marked := ws.alpha[:n], ws.touched[:0], ws.marked[:n]
		for i, ri := range rho {
			if ri == 0 {
				continue
			}
			for p := sf.rowStart[i]; p < sf.rowStart[i+1]; p++ {
				j := sf.rowCol[p]
				if !marked[j] {
					marked[j] = true
					touched = append(touched, j)
				}
				alpha[j] += ri * sf.rowVal[p]
			}
			alpha[sf.nStruct+i] = ri
			touched = append(touched, int32(sf.nStruct+i))
		}
		ws.touched = touched[:0] // keep the (possibly grown) backing array
		cands := ws.dcand[:0]
		lead := -1 // the candidate with the least (ratio, j)
		for _, j := range touched {
			a := alpha[j]
			alpha[j], marked[j] = 0, false
			if math.Abs(a) < pivotTol {
				continue
			}
			st := s.status[j]
			if st == inBasis || s.lo[j] == s.hi[j] {
				continue
			}
			if st == nbLower {
				if a*dir >= 0 {
					continue
				}
			} else if a*dir <= 0 {
				continue
			}
			cands = append(cands, dualCand{j: j, alpha: a, ratio: math.Abs(d[j]) / math.Abs(a)})
			if lead < 0 || compareCands(cands[len(cands)-1], cands[lead]) < 0 {
				lead = len(cands) - 1
			}
		}
		ws.dcand = cands[:0] // keep the (possibly grown) backing array
		if len(cands) == 0 {
			// Dual unbounded: no entering column can repair row r at any
			// nonbasic setting — the child is primal infeasible. This
			// verdict is exact, not a fallback.
			ws.invalidate()
			return lpInfeasible, 0, nil, s.effort(), true, nil
		}
		// Long-step ratio test: walk the candidates in dual-ratio order;
		// boxed columns whose breakpoint is strictly passed before the
		// infeasibility is absorbed flip to their other bound (a
		// dual-degenerate multi-breakpoint step), and the first
		// breakpoint group holding a candidate that can finish the
		// repair supplies the entering column.
		//
		// Same-ratio candidates share a breakpoint, so the step may
		// enter ANY of them without flipping the others — the duals
		// stop exactly where those reduced costs reach zero. This
		// matters enormously on placement models: almost every
		// structural column has zero cost, so the candidate list is one
		// giant zero-ratio group, and flipping through it (as a naive
		// ordered walk would) perturbs every basic row per flip and
		// churns for thousands of pivots. Within a group the largest
		// |alpha| wins: it repairs the row with the least entering-
		// variable movement. Ties break on (ratio, column index) — the
		// sort order, and strict comparisons below — keeping the pivot
		// sequence deterministic.
		//
		// The leader's group nearly always holds a finisher, so it is
		// searched first without sorting: the group is every candidate
		// within 1e-9 of the leader's ratio (the leader alone when its
		// ratio is NaN, which compareCands orders first). Only a group
		// without a finisher sorts the candidates and flips.
		need := worst
		enterIdx := finisher(cands, lead, need, s.lo, s.hi)
		ci := 0 // cands[:ci] have been flipped
		if enterIdx == -1 {
			slices.SortFunc(cands, compareCands)
		}
		for ci < len(cands) && enterIdx == -1 {
			groupEnd := ci + 1
			for groupEnd < len(cands) && cands[groupEnd].ratio <= cands[ci].ratio+1e-9 {
				groupEnd++
			}
			if best := finisher(cands[ci:groupEnd], 0, need, s.lo, s.hi); best >= 0 {
				enterIdx = ci + best
				break
			}
			// No group member can finish: flip the group leader (its
			// breakpoint is genuinely passed) and re-evaluate — the flip
			// shrinks the remaining infeasibility, which can turn later
			// members of the same group into finishers.
			c := &cands[ci]
			j := c.j
			rng := s.hi[j] - s.lo[j]
			need -= rng * math.Abs(c.alpha)
			var delta float64
			if s.status[j] == nbLower {
				s.status[j] = nbUpper
				delta = rng
			} else {
				s.status[j] = nbLower
				delta = -rng
			}
			w := ws.w[:m]
			s.ftranCol(int(j), delta, w, false)
			for i, wi := range w {
				s.xB[i] -= wi
			}
			ci++
		}
		if enterIdx == -1 {
			// Every candidate flipped and row r still cannot reach its
			// bound: infeasible (the flips exhaust the nonbasic box).
			ws.invalidate()
			return lpInfeasible, 0, nil, s.effort(), true, nil
		}
		// Entering pivot.
		q := int(cands[enterIdx].j)
		w := ws.w[:m]
		s.ftranCol(q, 1, w, true)
		if debugChecks&debugInvariants != 0 {
			s.checkFtran(q, w)
		}
		if a := cands[enterIdx].alpha; math.Abs(w[r]) < pivotTol || math.Abs(w[r]-a) > pivotAgree*math.Abs(a) {
			// The pivot as the row solve saw it (alpha_q) and as the
			// column solve does (w[r]) are one number computed twice.
			// Where they differ the factors have drifted: take back this
			// iteration's flips, rebuild, and redo the iteration. Fresh
			// factors that disagree leave nothing to rebuild.
			if ws.fac.updates() == 0 {
				return 0, 0, nil, s.effort(), false, nil
			}
			for _, c := range cands[:ci] {
				if s.status[c.j] == nbLower {
					s.status[c.j] = nbUpper
				} else {
					s.status[c.j] = nbLower
				}
			}
			if err := s.refactorizeBasis(); err != nil {
				return 0, 0, nil, s.effort(), false, nil
			}
			continue
		}
		deltaQ := (s.xB[r] - target) / w[r]
		xq := s.nbValue(q) + deltaQ
		for i := 0; i < m; i++ {
			if i != r {
				s.xB[i] -= w[i] * deltaQ
			}
		}
		if dir > 0 {
			s.status[out] = nbLower
		} else {
			s.status[out] = nbUpper
		}
		s.status[q] = inBasis
		s.basis[r] = int32(q)
		s.xB[r] = xq
		s.pivots++
		ws.pivotAge++
		if !ws.fac.update(r, w[r]) || ws.pivotAge >= s.refEvery {
			if err := s.refactorizeBasis(); err != nil {
				return 0, 0, nil, s.effort(), false, nil
			}
		}
		// Refresh the duals for the next ratio test (recomputed from the
		// factors rather than updated incrementally: same cost order as
		// one pricing pass, and immune to creeping error).
		if !s.computeDuals(y, d) {
			// Before giving the node to the primal, ask once whether the
			// damage is in the factors rather than the basis.
			if ws.fac.updates() == 0 || s.refactorizeBasis() != nil || !s.computeDuals(y, d) {
				return 0, 0, nil, s.effort(), false, nil
			}
		}
	}

	// Extract. The basis is primal feasible against freshly recomputed
	// basic values and dual feasible by the invariant checks above.
	x, obj := s.extract()
	ws.basisValid = true
	return lpOptimal, obj, x, s.effort(), true, nil
}

// computeDuals fills yᵀ = cBᵀ·B⁻¹ and the reduced costs d, and verifies
// every nonbasic reduced cost carries the sign its status requires
// (within a loosened tolerance — the branch changed no costs, so a
// violation is numerical damage, not a real dual infeasibility).
// Reports false on violation.
func (s *simplex) computeDuals(y, d []float64) bool {
	s.duals(y)
	s.reducedCosts(y, d)
	const dualFeasTol = 1e-6
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == inBasis || s.lo[j] == s.hi[j] {
			continue
		}
		if (st == nbLower && d[j] < -dualFeasTol) || (st == nbUpper && d[j] > dualFeasTol) {
			return false
		}
	}
	return true
}
