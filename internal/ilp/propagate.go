package ilp

// Node bound propagation. Before a tree node's LP, step runs the root
// presolve's activity rules (activity, impliedBounds) over the node's
// bounds, row by row from a FIFO, until nothing moves. When a row's
// activity range misses its right-hand side, or a domain empties, no
// point satisfying the rows lies in the node's box: the node's LP is
// infeasible, and the node is closed without one. Any other outcome is
// thrown away and the LP solves the node on the bounds it would have
// used anyway. Propagation is therefore prune-only: it derives only
// bounds every LP-feasible point satisfies (no integer rounding), so a
// node it closes is one the LP would report infeasible, and the search
// — nodes, incumbents, bases — is the one without it, minus the
// simplex iterations the dual spent proving that infeasibility.
//
// The work is cut at presolvePassLimit row visits per row of the
// model; a cut run proves nothing.

import (
	"fmt"
	"math"
)

// nodeProp is the search's propagation scratch. lo/hi hold the bounds
// propagated for node of, so a follow child solved right after its
// parent starts from them plus its own branched bound; any other node
// starts from the root bounds plus its chain.
type nodeProp struct {
	lo, hi []float64
	of     *node
	// ring is the FIFO of rows to visit (a row is in it at most once,
	// marked in queued); head is its first entry, n its length.
	ring    []int32
	queued  []bool
	head, n int
}

func newNodeProp(sf *standardForm) nodeProp {
	return nodeProp{
		lo:     make([]float64, sf.nStruct),
		hi:     make([]float64, sf.nStruct),
		ring:   make([]int32, sf.m),
		queued: make([]bool, sf.m),
	}
}

// reset empties the FIFO and forgets the node lo/hi were propagated
// for, which belongs to a finished search.
func (p *nodeProp) reset() {
	clear(p.queued)
	p.head, p.n, p.of = 0, 0, nil
}

// pushRows queues every row of column j except skip.
func (p *nodeProp) pushRows(sf *standardForm, j, skip int32) {
	for _, r := range sf.cols[j].ind {
		if r == skip || p.queued[r] {
			continue
		}
		p.queued[r] = true
		p.ring[(p.head+p.n)%len(p.ring)] = r
		p.n++
	}
}

// pop dequeues the FIFO's first row.
func (p *nodeProp) pop() int32 {
	r := p.ring[p.head]
	p.queued[r] = false
	p.head = (p.head + 1) % len(p.ring)
	p.n--
	return r
}

// drain empties the FIFO.
func (p *nodeProp) drain() {
	for p.n > 0 {
		p.pop()
	}
}

// propagate reports whether bound propagation proves node cur's LP
// infeasible. lo/hi are the node's materialized bounds and ws.chain its
// branched ancestry (materialize), neither of which it changes. The
// root node is skipped: the presolve left its bounds at a fixpoint.
func (b *bb) propagate(cur *node, lo, hi []float64, ws *lpWorkspace) bool {
	if cur.bvar < 0 {
		return false
	}
	sf, p := b.sf, &ws.prop
	if cur.parent == p.of {
		j := cur.bvar
		p.lo[j] = math.Max(p.lo[j], cur.blo)
		p.hi[j] = math.Min(p.hi[j], cur.bhi)
		p.pushRows(sf, int32(j), -1)
	} else {
		copy(p.lo, lo)
		copy(p.hi, hi)
		for _, a := range ws.chain {
			p.pushRows(sf, int32(a.bvar), -1)
		}
	}
	// A branched bound that crosses a propagated one is left to the
	// rows of the branched variable, which were queued: the row that
	// derived the crossed bound proves infeasibility only past its own
	// infTol, as the LP would.
	p.of = cur
	for visits := presolvePassLimit * sf.m; p.n > 0; visits-- {
		if visits == 0 {
			p.drain()
			return false
		}
		r := p.pop()
		vars := sf.rowCol[sf.rowStart[r]:sf.rowStart[r+1]]
		coef := sf.rowVal[sf.rowStart[r]:sf.rowStart[r+1]]
		act := activity(p.lo, p.hi, vars, coef)
		if act.infeasible(sf.ops[r], sf.b[r]) ||
			impliedBounds(p.lo, p.hi, nil, vars, coef, sf.ops[r], sf.b[r], act, func(v int32) { p.pushRows(sf, v, r) }) >= 0 {
			p.drain()
			return true
		}
	}
	return false
}

// checkPropPrune is the debugProp check on a node propagation closed:
// a cold solve of its LP on a fresh workspace must report it infeasible.
func (b *bb) checkPropPrune(cur *node, lo, hi []float64) {
	st, obj, _, _, err := solveLP(b.sf, lo, hi, defaultIterLimit, nil, nil, restartDual, newWorkspace(b.sf))
	if err != nil || st != lpInfeasible {
		panic(fmt.Sprintf("ilp: propagation closed the node at depth %d (x%d in [%g, %g]), but a cold solve of its LP gives status %d (objective %v, error %v)",
			cur.depth, cur.bvar, cur.blo, cur.bhi, st, obj, err))
	}
}
