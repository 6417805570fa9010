package ilp

// Pooled root bases. A loop that re-solves one model as its objective
// drifts solves the same rows under other costs each time, and the last
// root LP's optimal basis is often still optimal: when a weight moves a
// little, no reduced cost changes sign. Solve takes such a basis
// (Start.Basis) only when it is optimal for the new root LP as it
// stands:
//   - it has the lowered model's shape;
//   - it factorizes;
//   - its basic values lie within the bounds (primal feasible);
//   - every nonbasic reduced cost under the new costs has the sign its
//     bound requires (dual feasible).
//
// The test costs one factorization and one pricing pass, and a basis
// that passes ends the root LP there. Any other basis is rejected with
// the first failed test as its reason, and the root is solved cold,
// exactly as without it. No warm root is run from a basis that is not
// optimal: after a flip of the objective a warm primal root can cost
// more than a cold one. Optimality is checked on the actual LP, so
// correctness does not depend on where the basis came from. A basis
// comes only with an installed start, and a solve with a start runs no
// dive, so the search goes from a pooled root straight to the tree.

import "errors"

// Basis is the optimal basis of a solve's root LP (Solution.RootBasis).
// A later solve of a model with the same rows can take it back through
// Start.Basis. It is opaque and immutable.
type Basis struct {
	snap *basisSnapshot
}

// Solution.RootStart values other than a rejection, which reads
// "rejected (<reason>)".
const (
	RootCold   = "cold"
	RootPooled = "pooled"
)

// solveRoot solves the root LP: from basis when it is optimal there,
// cold otherwise. source says which (Solution.RootStart). A rejected
// basis costs no counted effort, so the cold solve that follows reports
// exactly what it would have without the basis.
func solveRoot(sf *standardForm, lo, hi []float64, basis *Basis, ws *lpWorkspace) (st lpStatus, obj float64, x []float64, counts lpCounts, source string, err error) {
	source = RootCold
	if basis != nil {
		reason := ""
		if st, obj, x, counts, reason = solvePooled(sf, lo, hi, basis.snap, ws); reason == "" {
			return st, obj, x, counts, RootPooled, nil
		}
		source = "rejected (" + reason + ")"
	}
	st, obj, x, counts, err = solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, ws)
	return st, obj, x, counts, source, err
}

// solvePooled installs snap and returns the root LP's optimum at it, or
// the reason it is not optimal there: "shape", "singular", "not primal
// feasible" or "not dual feasible".
func solvePooled(sf *standardForm, lo, hi []float64, snap *basisSnapshot, ws *lpWorkspace) (lpStatus, float64, []float64, lpCounts, string) {
	if len(snap.basis) != sf.m || len(snap.status) != sf.nStruct+sf.m {
		return 0, 0, nil, lpCounts{}, "shape"
	}
	s, empty, err := installSnapshot(sf, lo, hi, snap, ws)
	switch {
	case errors.Is(err, errSingularBasis):
		return 0, 0, nil, lpCounts{}, "singular"
	case empty || err != nil:
		return 0, 0, nil, lpCounts{}, "not primal feasible"
	}
	for i, bj := range s.basis {
		if s.xB[i] < s.lo[bj]-feasTol || s.xB[i] > s.hi[bj]+feasTol {
			ws.invalidate()
			return 0, 0, nil, lpCounts{}, "not primal feasible"
		}
	}
	// The pricing pass of iterate, under its tolerance: a basis passing
	// it is one the primal simplex would stop at.
	y, d := ws.y[:sf.m], ws.d[:s.n]
	s.duals(y)
	s.reducedCosts(y, d)
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == inBasis || s.lo[j] == s.hi[j] {
			continue
		}
		if (st == nbLower && d[j] < -dualTol) || (st == nbUpper && d[j] > dualTol) {
			ws.invalidate()
			return 0, 0, nil, lpCounts{}, "not dual feasible"
		}
	}
	x, obj := s.extract()
	ws.basisValid = true
	return lpOptimal, obj, x, lpCounts{iters: 1, refactors: s.refactors}, ""
}
