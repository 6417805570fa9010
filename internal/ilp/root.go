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
//
// The root race. A cold root LP of a solve with no installed start is
// solved twice at once. The primal (solveLP) runs on the solve's
// workspace, as it would alone. The bounded dual (dual.go) runs in a
// goroutine on a second workspace of the lowering's pool, from the
// slack basis with every structural column at its cost-favourable
// bound: its upper bound when its cost is negative, its lower bound
// otherwise. All reduced costs are then the costs themselves, so that
// basis is dual feasible as it stands. A negative-cost column with an
// infinite upper bound has no such bound, and the solve does not race.
//
// The dual wins only where its vertex ends the solve: it ends optimal,
// its vertex passes the integral test, and it took D <= P iterations,
// P the primal's. Anywhere else its vertex would seed the dive and the
// tree, and searches from another optimal vertex of the same LP differ
// widely (measured with the dual as the only root: the tenant-drift flip
// 5 → 75 nodes, NetCache at 1.25 Mb 1 → 152). The verdict reads only
// the two counts, so it is the same on any schedule and any number of
// cores. Each side publishes its count when it ends, and stops once the
// other's decides the outcome: the primal once its own count reaches a
// winning D, the dual once its count passes P. The winner's workspace
// carries on the solve and the loser's goes back to the pool. Only the
// winner's effort is the root's, so a solve the primal wins searches
// exactly as without the race; the loser's iterations, up to the
// winner's count, are Effort.RaceIters.

import (
	"errors"
	"math"
	"sync/atomic"
)

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
	RootDual   = "dual"
)

// rootLP is the root LP's outcome: its status, objective and vertex, the
// effort that solved it, how it started (Solution.RootStart), and the
// workspace that holds its basis, which the solve carries on with.
type rootLP struct {
	st     lpStatus
	obj    float64
	x      []float64
	effort Effort
	source string
	ws     *lpWorkspace
}

// solveRoot solves the root LP on ws: from basis when it is optimal
// there, else cold, by the race when race is set and the costs admit
// it. A rejected basis costs no counted effort, so the cold solve that
// follows reports exactly what it would have without the basis. The
// returned workspace is ws or, where the dual won, one taken from cell.
func solveRoot(sf *standardForm, lo, hi []float64, basis *Basis, race bool, cell *lowCell, ws *lpWorkspace) (rootLP, error) {
	source := RootCold
	if basis != nil {
		st, obj, x, e, reason := solvePooled(sf, lo, hi, basis.snap, ws)
		if reason == "" {
			return rootLP{st, obj, x, e, RootPooled, ws}, nil
		}
		source = "rejected (" + reason + ")"
	}
	if race {
		if snap := dualStart(sf); snap != nil {
			return raceRoot(sf, lo, hi, snap, cell, ws)
		}
	}
	st, obj, x, e, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, ws)
	return rootLP{st, obj, x, e, source, ws}, err
}

// rootRace is what the two sides of a raced root LP publish to each
// other: the primal's count P once it has ended, and the dual's count D
// once it has ended at an integral optimum. Either is noCount before.
type rootRace struct {
	primal, dual atomic.Int64
}

const noCount = math.MaxInt64

// errRaceLost stops a raced primal whose count has reached a winning D.
var errRaceLost = errors.New("ilp: the dual root won the race")

// dualStart is the dual's starting basis: every row's slack basic, every
// structural column at its cost-favourable bound. It is nil when a
// column with a negative cost has no finite upper bound.
func dualStart(sf *standardForm) *basisSnapshot {
	snap := &basisSnapshot{basis: make([]int32, sf.m), status: make([]int8, sf.nStruct+sf.m)}
	for j, c := range sf.cost {
		if c < 0 {
			if math.IsInf(sf.hi[j], 1) {
				return nil
			}
			snap.status[j] = nbUpper
		}
	}
	for i := range snap.basis {
		snap.basis[i] = int32(sf.nStruct + i)
		snap.status[sf.nStruct+i] = inBasis
	}
	return snap
}

// raceRoot runs the primal on ws and the dual from snap on a workspace
// taken from cell, and returns the winner's root (see the race above).
// The loser's workspace goes back to cell.
func raceRoot(sf *standardForm, lo, hi []float64, snap *basisSnapshot, cell *lowCell, ws *lpWorkspace) (rootLP, error) {
	race := new(rootRace)
	race.primal.Store(noCount)
	race.dual.Store(noCount)
	dws := cell.take(sf)
	ws.race, dws.race = race, race
	var dual rootLP
	done := make(chan struct{})
	go func() {
		defer close(done)
		st, obj, x, e, ok, err := solveDual(sf, lo, hi, defaultIterLimit, snap, dws)
		dual = rootLP{st, obj, x, e, RootDual, dws}
		if ok && err == nil && st == lpOptimal && integral(sf, x) {
			race.dual.Store(int64(e.SimplexIter))
		}
	}()
	st, obj, x, e, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, ws)
	if !errors.Is(err, errRaceLost) {
		race.primal.Store(int64(e.SimplexIter))
	}
	<-done
	ws.race, dws.race = nil, nil
	// A primal stopped by errRaceLost counted at least D.
	if d := race.dual.Load(); d <= int64(e.SimplexIter) {
		cell.put(ws)
		dual.effort.RaceIters = int(d)
		return dual, nil
	}
	cell.put(dws)
	e.RaceIters = min(dual.effort.SimplexIter, e.SimplexIter)
	return rootLP{st, obj, x, e, RootCold, ws}, err
}

// solvePooled installs snap and returns the root LP's optimum at it, or
// the reason it is not optimal there: "shape", "singular", "not primal
// feasible" or "not dual feasible".
func solvePooled(sf *standardForm, lo, hi []float64, snap *basisSnapshot, ws *lpWorkspace) (lpStatus, float64, []float64, Effort, string) {
	if len(snap.basis) != sf.m || len(snap.status) != sf.nStruct+sf.m {
		return 0, 0, nil, Effort{}, "shape"
	}
	s, empty, err := installSnapshot(sf, lo, hi, snap, ws)
	switch {
	case errors.Is(err, errSingularBasis):
		return 0, 0, nil, Effort{}, "singular"
	case empty || err != nil:
		return 0, 0, nil, Effort{}, "not primal feasible"
	}
	for i, bj := range s.basis {
		if s.xB[i] < s.lo[bj]-feasTol || s.xB[i] > s.hi[bj]+feasTol {
			ws.invalidate()
			return 0, 0, nil, Effort{}, "not primal feasible"
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
			return 0, 0, nil, Effort{}, "not dual feasible"
		}
	}
	s.iters++ // the pricing pass
	x, obj := s.extract()
	ws.basisValid = true
	return lpOptimal, obj, x, s.effort(), ""
}
