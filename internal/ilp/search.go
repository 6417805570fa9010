package ilp

// Branch and bound is one loop on the goroutine that called Solve. It
// pops the best open node off the best-first queue and plunges
// depth-first from it — following one child chain all the way down
// finds integer incumbents orders of magnitude faster than pure
// best-first on placement models — pushing the deferred children back
// as it goes. The search ends when the queue is empty or a limit or gap
// stop fires. Everything it does is a function of the model and the
// Options, so a solve is bit-reproducible; only a TimeLimit stop, which
// is wall-clock, is not.
//
// The bound stays sound at every stop. A chain cut short (the plunge
// cap, a node or time limit) pushes its unexpanded node back on the
// queue, so the abandoned subtree keeps its bound, and the proven bound
// is the best open node's. Mid-plunge the chain's first node, off the
// queue, counts too: its bound bounds every child the chain opens (see
// boundMin).

import (
	"container/heap"
	"errors"
	"time"
)

// halt stops the search with the given terminal status. The first call
// wins.
func (b *bb) halt(status Status) {
	if !b.halted {
		b.finalStatus, b.halted = status, true
	}
}

// search pops and plunges, on the workspace the root LP left behind,
// until the tree is exhausted or a limit or gap stop fires.
func (b *bb) search(ws *lpWorkspace) (*Solution, error) {
	for !b.halted && len(b.queue) > 0 {
		nd := heap.Pop(&b.queue).(*node)
		if nd.bound >= b.bestObj-1e-9 {
			continue // pruned by the incumbent
		}
		if err := b.plunge(nd, ws); err != nil {
			return nil, err
		}
		if !b.halted && b.opts.Gap > 0 && b.bestX != nil &&
			relGap(b.bestObj, b.boundMin(nil)) <= b.opts.Gap {
			b.halt(StatusOptimal)
		}
	}
	switch {
	case b.halted:
		return b.solution(b.finalStatus), nil
	case b.bestX == nil:
		return b.solution(StatusInfeasible), nil
	}
	return b.solution(StatusOptimal), nil
}

// plunge follows one depth-first chain from nd. On any early stop the
// unexpanded chain node is pushed back so the queue keeps a sound bound
// for the abandoned subtree.
func (b *bb) plunge(nd *node, ws *lpWorkspace) error {
	// New chain: drop any resident basis from the previous chain (see
	// lpWorkspace.invalidate).
	ws.invalidate()
	cur := nd
	for steps := 0; cur != nil && steps < plungeLimit; steps++ {
		if !b.deadline.IsZero() && time.Now().After(b.deadline) {
			b.halt(StatusLimit)
			break
		}
		if b.effort.Nodes >= b.nodeLimit {
			b.halt(StatusLimit)
			break
		}
		b.effort.Nodes++
		if b.opts.Progress != nil && b.effort.Nodes%b.progressEvery == 0 {
			b.emit(ProgressNode, nd)
		}
		out, err := b.step(cur, ws)
		if errors.Is(err, errDeadline) {
			// The deadline fired inside this node's LP: stop, and requeue
			// the unexpanded node (the loop exit below).
			b.halt(StatusLimit)
			break
		}
		if err != nil {
			return err
		}
		if out.pruned {
			return nil
		}
		if out.integral {
			// step pruned against the incumbent, so the point improves it.
			b.install(out.obj, out.x)
			b.effort.TreeFound++
			b.emit(ProgressIncumbent, nd)
			if b.centre != nil {
				b.halt(StatusLimit)
			}
			return nil
		}
		if out.deferred != nil {
			b.push(out.deferred)
		}
		cur = out.follow
	}
	if cur != nil {
		// Chain cut early (plunge cap or a limit): the node survives as
		// an open subproblem.
		b.push(cur)
	}
	return nil
}
