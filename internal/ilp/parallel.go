package ilp

// Branch and bound has one driver: a pool of identical workers over the
// shared best-first queue. Each worker pops the best open node under
// bb.mu and plunges depth-first from it — following one child chain all
// the way down finds integer incumbents orders of magnitude faster than
// pure best-first on placement models — against the freshest incumbent
// (read lock-free from bb.bestBits), pushing deferred children back as
// it goes. Termination: the queue is empty AND no worker is mid-plunge.
// Gap certification folds the bounds of in-flight nodes
// (bb.activeBound) into the proven bound, since a worker mid-plunge can
// still open children anywhere above the bound of the node it popped.
//
// One worker runs inline on the goroutine that called Solve; that is
// the sequential search, and the only reproducible one (see
// Options.Deterministic).
//
// See docs/PARALLEL_SOLVER.md for the full architecture and the
// termination/gap soundness argument.

import (
	"container/heap"
	"errors"
	"math"
	"sync"
	"time"
)

// halt requests search termination with the given terminal status. The
// first caller wins; later calls (e.g. a second worker hitting the node
// limit) are no-ops.
func (b *bb) halt(status Status) {
	b.mu.Lock()
	b.haltLocked(status)
	b.mu.Unlock()
}

func (b *bb) haltLocked(status Status) {
	if b.stopped.Load() {
		return
	}
	b.finalStatus = status
	b.halted = true
	b.stopped.Store(true)
	b.cond.Broadcast()
}

// publish offers an integer-feasible point as the new incumbent. The
// worker found it against a possibly stale cutoff, so the strict
// improvement check is repeated under the lock.
func (b *bb) publish(obj float64, x []float64) {
	b.mu.Lock()
	if obj < b.bestObj-1e-9 {
		b.install(obj, x)
		b.emitLocked(ProgressIncumbent)
		if b.firstOnly {
			b.haltLocked(StatusLimit)
		}
	}
	b.mu.Unlock()
}

// search runs the workers until the tree is exhausted or a limit/gap
// stop fires. Worker 0 runs on the calling goroutine with the workspace
// the root LP left behind; each further worker is a goroutine with a
// workspace of its own.
func (b *bb) search(ws0 *lpWorkspace) (*Solution, error) {
	var wg sync.WaitGroup
	for w := 1; w < b.threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			b.worker(id, newWorkspace(b.sf))
		}(w)
	}
	b.worker(0, ws0)
	wg.Wait()
	// Single-threaded from here: every worker has exited and its
	// in-flight node (if any) was pushed back onto the queue.
	if b.err != nil {
		return nil, b.err
	}
	if b.halted {
		return b.solution(b.finalStatus), nil
	}
	if b.bestX == nil {
		return b.solution(StatusInfeasible), nil
	}
	return b.solution(StatusOptimal), nil
}

// worker is one pool member: pop, plunge, account, repeat.
func (b *bb) worker(id int, ws *lpWorkspace) {
	tally := &b.tallies[id]
	b.mu.Lock()
	for {
		for len(b.queue) == 0 && b.nActive > 0 && !b.stopped.Load() {
			b.cond.Wait()
		}
		if b.stopped.Load() || (len(b.queue) == 0 && b.nActive == 0) {
			// Wake the other waiters on the way out: this worker may be
			// the first to observe exhaustion (e.g. after pruning the
			// last queued node without ever going active), and the
			// waiters' predicate is now false for them too.
			b.cond.Broadcast()
			b.mu.Unlock()
			return
		}
		nd := heap.Pop(&b.queue).(*node)
		if nd.bound >= b.bestObj-1e-9 {
			continue // pruned by the incumbent
		}
		// While this worker plunges, its subtree's bound must stay
		// visible to gap certification and to the idle workers' exit
		// check (children may be pushed mid-plunge).
		b.activeBound[id] = nd.bound
		b.nActive++
		b.mu.Unlock()

		err := b.plunge(nd, ws, tally)

		b.mu.Lock()
		b.activeBound[id] = math.Inf(1)
		b.nActive--
		if err != nil && b.err == nil {
			b.err = err
			b.stopped.Store(true)
			b.cond.Broadcast()
		}
		if b.nActive == 0 && len(b.queue) == 0 {
			// Tree exhausted: wake the waiters so they observe it.
			b.cond.Broadcast()
		}
		if !b.stopped.Load() && b.opts.Gap > 0 && b.bestX != nil &&
			relGap(b.bestObj, b.boundMinLocked()) <= b.opts.Gap {
			b.haltLocked(StatusOptimal)
		}
	}
}

// plunge follows one depth-first chain. On any early stop the
// unexpanded chain node is pushed back so the queue keeps a sound
// bound for the abandoned subtree.
func (b *bb) plunge(nd *node, ws *lpWorkspace, tally *workerTally) error {
	// New chain: drop any resident basis from the previous chain (see
	// lpWorkspace.invalidate).
	ws.invalidate()
	cur := nd
	for steps := 0; cur != nil && steps < plungeLimit; steps++ {
		if b.stopped.Load() {
			break
		}
		if !b.deadline.IsZero() && time.Now().After(b.deadline) {
			b.halt(StatusLimit)
			break
		}
		// Reserve the node slot before expanding; roll the reservation
		// back if it overshoots so Solution.Nodes never exceeds the
		// limit no matter how many workers race here.
		n := b.nodesDone.Add(1)
		if int(n) > b.nodeLimit {
			b.nodesDone.Add(-1)
			b.halt(StatusLimit)
			break
		}
		tally.add(Effort{Nodes: 1})
		if b.opts.Progress != nil && n%int64(b.progressEvery) == 0 {
			b.mu.Lock()
			b.emitLocked(ProgressNode)
			b.mu.Unlock()
		}
		cutoff := math.Float64frombits(b.bestBits.Load())
		out, err := b.step(cur, cutoff, ws, tally)
		if errors.Is(err, errDeadline) {
			// The deadline fired inside this node's LP: stop the pool and
			// requeue the unexpanded node (the loop exit below) so the
			// abandoned subtree keeps a sound bound.
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
			b.publish(out.obj, out.x)
			return nil
		}
		if out.deferred != nil {
			b.mu.Lock()
			b.pushLocked(out.deferred)
			b.cond.Signal()
			b.mu.Unlock()
		}
		cur = out.follow
	}
	if cur != nil {
		// Chain cut early (plunge cap, stop flag, or a limit): the
		// node survives as an open subproblem.
		b.mu.Lock()
		b.pushLocked(cur)
		b.cond.Signal()
		b.mu.Unlock()
	}
	return nil
}
