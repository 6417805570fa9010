package ilp

// Neighbourhood search after the dive (local branching: Fischetti &
// Lodi, "Local branching", Math. Programming 2003). A cold solve whose
// dive incumbent x̄ is not within the gap of the root bound searches
// x̄'s Hamming ball over the binary variables before it opens its own
// tree: one branch and bound over the lowered model plus the row
//
//	Σ_{x̄ⱼ=0} xⱼ + Σ_{x̄ⱼ=1} (1 − xⱼ) ≤ neighbourRadius,
//
// pruned against the incumbent's objective (a cutoff, not an objective
// row), with no dive, under a constant node budget and the solve's
// deadline, stopped at its first integral node. That node is strictly
// better than x̄; the solve installs it and re-checks the gap. A search
// that finds nothing leaves the solve's own search as it was.
//
// The ball's tree branches away from its centre: of a node's two
// children it follows the one whose bound range excludes x̄'s value of
// the branched variable and defers the one that keeps it, where the
// solve's own tree follows the side the LP leans toward. A chain that
// keeps x̄'s values stays inside the ball, so following it plunged many
// levels (nine at NetCache 1.75 Mb) before the search came back to the
// nodes just below its root. A child that leaves x̄ spends the row's
// radius, so its chain ends within a few nodes (two, at every NetCache
// point that searches): integral, dominated or infeasible once every
// other binary is held at x̄'s value. On the NetCache points that
// search the ball this halves its iterations (1.0 Mb: 989 → 379,
// 1.75 Mb: 1 933 → 709) at the same incumbents.
//
// The ball's root LP is solved cold from the root LP's solution. Its
// optimal vertex is not the root's, and the tree below it is what finds
// the NetCache incumbents: started by dual simplex from the root basis
// instead, the search stays on the root's vertex (measured while the
// ball still branched toward its centre: 4 942 iterations at 1.0 Mb,
// where the cold start took 989). The cold primal path is fragile on
// this row, though (StandaloneHashTable's ball drifts at every
// refactorization cadence), so an LP of the ball makes one attempt
// under neighbourLPCap, and numerical trouble or the cap ends the
// search as one that found nothing.

import "math"

// neighbourRadius and neighbourNodes are the ball's Hamming radius and
// the search's node budget, and neighbourLPCap bounds one LP of the
// search at that many times the iterations of the solve's cold root LP.
// Measured on the four compile-solve programs (NetCache at 1.0, 1.75
// and 2.5 Mb, Precision at 1.75 Mb; 3 % gap): the dive's incumbent is
// within the gap at 2.5 Mb and on Precision, so only 1.0 and 1.75 Mb
// search. At radius 2 both find their final incumbent, in 8 and 6
// nodes (379 and 709 iterations), and then end at the root, where
// their trees took 65 and 46 nodes. Radius 1 holds no better point
// (2 769 and 2 060 iterations to learn so); radius 3 finds nothing at
// either within the node budget (4 505 and 6 507). A cap of 1 stops the
// 1.75 Mb search at its third node with nothing found; caps 2 and 4
// search alike at both.
const (
	neighbourRadius = 2
	neighbourNodes  = 50
	neighbourLPCap  = 2
)

// searchNeighbourhood runs the neighbourhood search around the
// incumbent, from the root LP's solution rootX, which took rootIters
// simplex iterations, and adds its work to the solve's effort: its LP
// iterations to SimplexIter (and the dual share, fallbacks and
// refactorizations to theirs), its nodes to NeighbourNodes, not Nodes.
// Its tree branches away from the incumbent, the ball's centre. It
// returns the point it found and its objective (minimization sense), or
// ok false.
func (b *bb) searchNeighbourhood(rootX []float64, rootIters int) (x []float64, obj float64, ok bool) {
	s := &bb{
		sf:        b.sf.withLocalBranch(b.bestX),
		nodeLimit: neighbourNodes,
		iterLimit: neighbourLPCap * rootIters,
		deadline:  b.deadline,
		sign:      b.sign,
		bestObj:   b.bestObj,
		centre:    b.bestX,
	}
	s.push(&node{bvar: -1, bound: b.rootMin, hint: rootX})
	_, err := s.search(newWorkspace(s.sf))
	e := s.effort
	b.effort.add(Effort{
		SimplexIter: e.SimplexIter, Refactors: e.Refactors,
		DualIters: e.DualIters, PrimalFallbacks: e.PrimalFallbacks,
		NeighbourIters: e.SimplexIter, NeighbourNodes: e.Nodes,
	})
	if err != nil || s.bestX == nil {
		return nil, 0, false
	}
	b.effort.NeighbourFound++
	return s.bestX, s.bestObj, true
}

// withLocalBranch returns sf plus the local-branching row around
// centre, over the binary columns (integer, with root bounds [0, 1]),
// with one LP attempt each. The row's coefficients are ±1, so it is its
// own scaling. sf itself is left as it was.
func (sf *standardForm) withLocalBranch(centre []float64) *standardForm {
	sub := *sf
	sub.oneAttempt = true
	row := int32(sf.m)
	rhs := float64(neighbourRadius)
	sub.cols = make([]spCol, sf.nStruct)
	for j, col := range sf.cols {
		sub.cols[j] = col
		if !sf.intVar[j] || sf.lo[j] != 0 || sf.hi[j] != 1 {
			continue
		}
		coef := 1.0
		if math.Round(centre[j]) == 1 {
			coef = -1
			rhs--
		}
		sub.cols[j] = spCol{
			ind: append(col.ind[:len(col.ind):len(col.ind)], row),
			val: append(col.val[:len(col.val):len(col.val)], coef),
		}
	}
	sub.m = sf.m + 1
	sub.ops = append(sf.ops[:sf.m:sf.m], LE)
	sub.b = append(sf.b[:sf.m:sf.m], rhs)
	sub.buildRows()
	return &sub
}
