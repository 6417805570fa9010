package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Options tunes the branch-and-bound search. The zero value requests
// exact optimization with generous default limits.
type Options struct {
	// TimeLimit bounds total solve wall time (0 means no limit).
	TimeLimit time.Duration
	// NodeLimit bounds branch-and-bound nodes (0 means the default of
	// 200000).
	NodeLimit int
	// Gap is the relative optimality gap at which the search may stop
	// early (0 means prove optimality to tolerance).
	Gap float64
	// Threads and Deterministic are ignored; the benchmark (bench/)
	// still sets both. Every solve searches on the goroutine that
	// called Solve and is bit-reproducible for a fixed (model, Options)
	// pair — same incumbent sequence, objective and assignment on every
	// run — unless a TimeLimit stop, which is wall-clock, ends it (pin
	// NodeLimit instead).
	Threads       int
	Deterministic bool
	// Start supplies MIP starts (see Start). Each start's Values must
	// hold one entry per model variable, else Solve returns an error.
	// Every entry must be finite — a NaN or infinite value returns an
	// error naming the start and the variable rather than being silently
	// dropped. Each start is projected onto the variable bounds — integer
	// variables rounded, out-of-range values clamped — and kept if the
	// projected point satisfies every constraint. The kept start with the
	// best objective under this model (ties go to the earlier start) is
	// installed as the root incumbent before branching, so the search
	// starts with a proven bound, and its Basis, if any, is offered to
	// the root LP (root.go). A solve with an installed start runs no
	// rounding dive: the tree improves on the start. Infeasible starts
	// are silently dropped (with none left the solve proceeds cold and
	// dives); Solution.WarmStarted,
	// StartIndex and RootStart report what happened. Re-solves of a
	// perturbed model seeded from previous solutions prune most of the
	// tree and are typically near-instant.
	Start []Start
	// Progress, when non-nil, receives search snapshots: the root
	// relaxation, every incumbent improvement, a heartbeat every 256
	// nodes, and the terminal state. A nil hook costs nothing on the
	// solve path. The hook runs on the goroutine that called Solve; it
	// must not call back into the solver.
	Progress func(Progress)

	// The unexported switches below are for this package's tests, which
	// use the paths they select as references.

	// disableHeuristic skips the initial rounding dive used to seed an
	// incumbent.
	disableHeuristic bool
	// disablePresolve turns off the root presolve (fixpoint bound
	// tightening from constraint activity, integer bound rounding,
	// fixed-variable substitution, redundant-row drops — see
	// presolve.go).
	disablePresolve bool
	// disableDual turns off dual-simplex child re-solves from inherited
	// bases (dual.go): every node then re-solves with the two-phase
	// primal path, as the solver did before the dual driver existed.
	disableDual bool
	// disableRootRace solves every cold root LP by the primal alone
	// (root.go).
	disableRootRace bool
	// progressEvery is the node interval between heartbeat callbacks
	// (0 means the default of 256).
	progressEvery int
}

// Start is one MIP start: a previous solution's values and, optionally,
// its root LP basis (Solution.RootBasis). The root LP of a solve that
// installs this start ends at Basis when Basis is optimal for it, and is
// solved cold otherwise (root.go).
type Start struct {
	Values []float64
	Basis  *Basis
}

// ProgressKind labels why a Progress snapshot was delivered.
type ProgressKind int

const (
	// ProgressRoot reports the root LP relaxation, before branching.
	ProgressRoot ProgressKind = iota
	// ProgressIncumbent reports a new best integer solution.
	ProgressIncumbent
	// ProgressNode is the periodic heartbeat every 256 nodes.
	ProgressNode
	// ProgressDone reports the terminal state of the search.
	ProgressDone
)

func (k ProgressKind) String() string {
	switch k {
	case ProgressRoot:
		return "root"
	case ProgressIncumbent:
		return "incumbent"
	case ProgressNode:
		return "node"
	case ProgressDone:
		return "done"
	default:
		return fmt.Sprintf("ProgressKind(%d)", int(k))
	}
}

// Progress is one snapshot of the branch-and-bound search, delivered
// to Options.Progress. Objectives and bounds are reported in the
// model's own sense.
type Progress struct {
	Kind ProgressKind
	// Effort is the search's work so far.
	Effort
	// HasIncumbent reports whether an integer-feasible solution exists
	// yet; Incumbent and Gap are meaningful only when it is true.
	HasIncumbent bool
	// Incumbent is the objective of the best integer solution so far.
	Incumbent float64
	// BestBound is the tightest proven bound on the optimum so far.
	BestBound float64
	// Gap is the relative gap between Incumbent and BestBound
	// (+Inf without an incumbent).
	Gap float64
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
}

const (
	defaultNodeLimit     = 200000
	defaultIterLimit     = 50000
	defaultProgressEvery = 256
	intTol               = 1e-6
	// plungeLimit bounds the depth-first chain followed from each
	// popped node before returning to the best-first queue.
	plungeLimit = 256
)

// node is one branch-and-bound subproblem, represented as an O(1)
// delta against its parent: the branched variable and its narrowed
// bound pair. Full bound vectors are materialized into the search's
// scratch (lpWorkspace.nodeLo/nodeHi) only when the node's LP is
// solved, so opening a child costs one small struct instead of two
// bound-vector clones.
type node struct {
	id       int64 // queue insertion order; breaks bound ties deterministically
	parent   *node
	bvar     int     // variable this node's delta narrows (-1 at the root)
	blo, bhi float64 // the narrowed bound pair for bvar
	bound    float64 // LP relaxation objective (min sense)
	depth    int
	hint     []float64 // parent LP solution warm-starting this node
	// snap is the parent's optimal basis (shared with the sibling); the
	// dual re-solver starts from it. Nil when the parent's basis was
	// not inheritable (artificials basic) or dual re-solves are off.
	snap *basisSnapshot
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// bb is the state of one Solve invocation (the search loop is
// search.go).
type bb struct {
	sf            *standardForm
	opts          Options
	nodeLimit     int
	iterLimit     int // simplex iterations one tree node's LP may take
	progressEvery int
	deadline      time.Time
	sign          float64
	solveStart    time.Time
	rootMin       float64 // root relaxation in minimization sense
	rootBound     float64 // root relaxation in model sense
	warmUsed      bool
	startIdx      int    // which Options.Start was installed (when warmUsed)
	rootStart     string // how the root LP started (Solution.RootStart)
	rootBasis     *Basis // the root LP's optimal basis
	lowered       bool   // this solve built the lowering (Solution.Lowered)

	queue       nodeQueue
	nextID      int64
	bestObj     float64 // incumbent objective, minimization sense
	bestX       []float64
	effort      Effort
	centre      []float64 // a ball's centre: branch away, stop at the first incumbent (neighbour.go)
	halted      bool      // a limit/gap stop fired; finalStatus holds why
	finalStatus Status    // terminal status once halted
}

// Solve optimizes the model. Pure LPs (no integer variables) are solved
// with a single simplex run; otherwise branch and bound proves integer
// optimality. The returned Solution reports values and objective in the
// model's own sense.
//
// A model's lowering for the simplex — its bounds, row scaling and
// presolve — does not depend on the objective. A model and its clones
// that changed only the objective (Model.Clone) share one: the first of
// their solves builds it, and later ones reuse it and the workspaces of
// the solves before them (Solution.Lowered). A model never cloned
// keeps nothing once its solve returns.
func Solve(m *Model, opts Options) (*Solution, error) {
	cell := m.low.Load()
	if cell == nil || opts.disablePresolve {
		cell = new(lowCell) // nothing shares it, or the test path skips the presolve
	}
	low, lowered, err := cell.get(m, !opts.disablePresolve)
	if err != nil {
		return &Solution{Status: StatusInfeasible, Lowered: lowered}, nil //nolint:nilerr // trivially infeasible is a result, not a failure
	}
	sf := low.view(m)
	sf.dualOK = !opts.disableDual
	b := &bb{sf: sf, opts: opts, sign: 1, bestObj: math.Inf(1), lowered: lowered}
	if m.sense == Maximize {
		b.sign = -1
	}
	b.iterLimit = defaultIterLimit
	b.nodeLimit = opts.NodeLimit
	if b.nodeLimit == 0 {
		b.nodeLimit = defaultNodeLimit
	}
	if opts.TimeLimit > 0 {
		b.deadline = time.Now().Add(opts.TimeLimit)
		// Stamp the lowered form so the simplex itself aborts past the
		// deadline: between-node checks alone cannot stop a single
		// degenerate LP from overrunning the limit.
		sf.deadline = b.deadline
	}
	b.progressEvery = opts.progressEvery
	if b.progressEvery <= 0 {
		b.progressEvery = defaultProgressEvery
	}
	if opts.Progress != nil {
		b.solveStart = time.Now()
	}

	hasInt := false
	for _, isInt := range sf.intVar {
		if isInt {
			hasInt = true
			break
		}
	}

	var startX []float64
	startObj, startIdx := math.Inf(1), 0
	for i, start := range opts.Start {
		if len(start.Values) != sf.nStruct {
			return nil, fmt.Errorf("ilp: start %d has %d values for %d variables", i, len(start.Values), sf.nStruct)
		}
		// A non-finite start entry is a caller bug (a stale or
		// corrupted warm-start pool), not a merely-infeasible point:
		// NaN propagates through the clamp in projectStart and the
		// start would be dropped silently. Reject it loudly instead.
		// Finite out-of-range values are legitimate (a start taken
		// from a model with wider bounds) and are clamped.
		for j, v := range start.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ilp: start %d: value %v for variable %q (index %d) is not finite", i, v, m.vars[j].name, j)
			}
		}
		// Strictly better only: a tie keeps the earlier start.
		if x, obj := projectStart(sf, start.Values); obj < startObj {
			startX, startObj, startIdx = x, obj, i
		}
	}

	// The root relaxation, the warm-start installation, and the diving
	// heuristic run before the tree search, which inherits the workspace
	// seeded here. The root LP starts from the installed start's basis
	// when that basis is optimal for it; without a start it is raced.
	var pooled *Basis
	if startX != nil {
		pooled = opts.Start[startIdx].Basis
	}
	lo, hi := sf.cloneBounds()
	root, err := solveRoot(sf, lo, hi, pooled, startX == nil && !opts.disableRootRace, cell, cell.take(sf))
	ws := root.ws
	defer cell.put(ws)
	st, obj, x, rootEffort := root.st, root.obj, root.x, root.effort
	rootEffort.Nodes, rootEffort.RootIters = 1, rootEffort.SimplexIter
	b.effort.add(rootEffort)
	b.rootStart = root.source
	if errors.Is(err, errDeadline) {
		// The root relaxation alone exhausted the time limit: report an
		// honest limit stop (no incumbent, no root bound) instead of a
		// hard error.
		return b.solution(StatusLimit), nil
	}
	if err != nil {
		return nil, err
	}
	b.rootBound = b.sign * (obj + sf.objK)
	b.rootMin = obj
	switch st {
	case lpInfeasible:
		return b.solution(StatusInfeasible), nil
	case lpUnbounded:
		return b.solution(StatusUnbounded), nil
	}
	// Capture the root basis now, while the workspace still holds it
	// (the dive below reuses the workspace): the dive's first step
	// restarts from it, the root node re-solves from it in zero pivots
	// when popped, and Solution.RootBasis hands it to a later solve.
	rootSnap := ws.captureBasis(sf)
	if rootSnap != nil {
		b.rootBasis = &Basis{snap: rootSnap}
	}
	if !hasInt || integral(sf, x) {
		b.install(obj, x)
		return b.solution(StatusOptimal), nil
	}
	// Queue the root node before anything can stop the search at the
	// root: while it is open, every report — the incumbent events and
	// the terminal BestBound — bounds the optimum by the root LP, not
	// by the incumbent.
	nodeSnap := rootSnap
	if !sf.dualOK {
		nodeSnap = nil
	}
	b.push(&node{bvar: -1, bound: obj, hint: x, snap: nodeSnap})
	b.emit(ProgressRoot, nil)

	switch {
	case startX != nil:
		// The best projected MIP start is feasible: install it as the
		// root incumbent, and search the tree from it without a dive.
		// Measured on every warm re-solve the repository runs, the start
		// dominates what the dive would add (objectives in model sense;
		// iterations with the dive → without it):
		//
		//	re-solve                  start      dive finds  iterations
		//	tenant-drift first flip   32 768     nothing     1 211 → 714
		//	elastic adopting          5 836.8    4 198.4     1 692 → 644
		//	elastic kept              9 523.2    4 198.4     1 311 → 263
		//	fairness w = 2            59 050.7   nothing     88 744 → 88 375
		//	reweight                  2 560      2 047.8     5 226 → 3 157
		//	Figure 13 re-solve        263 782.4  299 417.6   5 365 → 5 447
		//
		// Every search ends at the objective it reached with the dive
		// (reweight's within its 3 % gap); only Figure 13's dive beats
		// its start, and there it saves 1.5 % of the iterations.
		b.install(startObj, startX)
		b.warmUsed, b.startIdx = true, startIdx
		b.emit(ProgressIncumbent, nil)
		// Within the requested gap of the root bound the search stops
		// here: the warm re-solve of a lightly perturbed model costs one
		// LP.
		if b.gapSatisfiedAtRoot() {
			return b.solution(StatusOptimal), nil
		}
	case !opts.disableHeuristic:
		// A cold solve seeds its incumbent by the rounding dive. Its
		// warm restarts are budgeted at what this cold root cost.
		sf.warmCap = rootEffort.SimplexIter
		var dive Effort
		hx, hobj, ok := diveHeuristic(sf, lo, hi, x, rootSnap, defaultIterLimit, &dive, ws)
		dive.DiveIters = dive.SimplexIter
		b.effort.add(dive)
		if ok {
			b.install(hobj, hx)
			b.effort.DiveFound = 1
			b.emit(ProgressIncumbent, nil)
			// An incumbent already at the root bound (or within the
			// requested gap of it) cannot be improved enough to matter:
			// stop before opening the tree.
			if b.gapSatisfiedAtRoot() {
				return b.solution(StatusOptimal), nil
			}
			// Otherwise search the incumbent's neighbourhood first: a
			// better point there may close the gap at the root.
			if nx, nobj, found := b.searchNeighbourhood(x, rootEffort.SimplexIter); found {
				b.install(nobj, nx)
				b.emit(ProgressIncumbent, nil)
				if b.gapSatisfiedAtRoot() {
					return b.solution(StatusOptimal), nil
				}
			}
		}
	}

	return b.search(ws)
}

// install records a new incumbent (no improvement check — callers
// compare first).
func (b *bb) install(obj float64, x []float64) {
	b.bestObj, b.bestX = obj, x
}

// gapSatisfiedAtRoot reports whether the incumbent is already at the
// root bound or within the requested gap of it.
func (b *bb) gapSatisfiedAtRoot() bool {
	return b.bestObj <= b.rootMin+1e-9 ||
		(b.opts.Gap > 0 && relGap(b.bestObj, b.rootMin) <= b.opts.Gap)
}

// boundMin returns the tightest proven min-sense bound on the optimum:
// the best bound among the open nodes and inFlight, the node a plunge
// started from (nil between plunges), clamped at the incumbent (an
// exhausted or fully dominated search proves the incumbent optimal).
func (b *bb) boundMin(inFlight *node) float64 {
	bound := math.Inf(1)
	if len(b.queue) > 0 {
		bound = b.queue[0].bound
	}
	// A plunge may still open children anywhere above the bound of the
	// node it popped, which is no longer on the queue.
	if inFlight != nil && inFlight.bound < bound {
		bound = inFlight.bound
	}
	if b.bestX != nil {
		if bound > b.bestObj {
			bound = b.bestObj
		}
		return bound
	}
	if !math.IsInf(bound, 1) {
		return bound
	}
	return b.rootMin
}

// emit delivers one Progress snapshot, bounded as boundMin(inFlight)
// says; a nil hook makes it free.
func (b *bb) emit(kind ProgressKind, inFlight *node) {
	if b.opts.Progress == nil {
		return
	}
	p := Progress{
		Kind:    kind,
		Effort:  b.effort,
		Gap:     math.Inf(1),
		Elapsed: time.Since(b.solveStart),
	}
	bm := b.boundMin(inFlight)
	p.BestBound = b.sign * (bm + b.sf.objK)
	if b.bestX != nil {
		p.HasIncumbent = true
		p.Incumbent = b.sign * (b.bestObj + b.sf.objK)
		p.Gap = relGap(b.bestObj, bm)
	}
	b.opts.Progress(p)
}

// solution assembles the terminal Solution and emits the done snapshot.
func (b *bb) solution(status Status) *Solution {
	sol := &Solution{
		Status:      status,
		Effort:      b.effort,
		RootStart:   b.rootStart,
		RootBasis:   b.rootBasis,
		Presolve:    b.sf.pre,
		Lowered:     b.lowered,
		RootBound:   b.rootBound,
		WarmStarted: b.warmUsed,
		StartIndex:  b.startIdx,
	}
	if b.bestX != nil {
		sol.Values = b.bestX
		// lowerModel folded the sense into cost and objK, so the
		// model-sense objective is sign*(objMin + objK).
		sol.Objective = b.sign * (b.bestObj + b.sf.objK)
		sol.BestBound = sol.Objective
		if len(b.queue) > 0 && (status != StatusOptimal || b.opts.Gap > 0) {
			// The open node with the best bound limits how much better
			// any undiscovered solution could be.
			sol.BestBound = b.sign * (b.boundMin(nil) + b.sf.objK)
		}
	}
	b.emit(ProgressDone, nil)
	return sol
}

// stepOut classifies the expansion of one subproblem.
type stepOut struct {
	pruned   bool // LP infeasible or dominated by the cutoff: chain ends
	integral bool // x is integer feasible with objective obj
	obj      float64
	x        []float64
	follow   *node // child the LP leans toward (plunge into it)
	deferred *node // other child, destined for the open queue
}

// materialize expands a delta node's bound chain into the workspace's
// scratch vectors: the root (post-presolve) bounds overlaid with every
// ancestor's single-variable delta, applied root-to-leaf so a deeper
// re-branch on the same variable wins. The returned slices alias the
// workspace and are valid until the next materialize on it.
func (b *bb) materialize(nd *node, ws *lpWorkspace) (lo, hi []float64) {
	n := b.sf.nStruct
	lo = ws.nodeLo[:n]
	hi = ws.nodeHi[:n]
	copy(lo, b.sf.lo)
	copy(hi, b.sf.hi)
	ws.chain = ws.chain[:0]
	for a := nd; a != nil && a.bvar >= 0; a = a.parent {
		ws.chain = append(ws.chain, a)
	}
	for i := len(ws.chain) - 1; i >= 0; i-- {
		a := ws.chain[i]
		lo[a.bvar], hi[a.bvar] = a.blo, a.bhi
	}
	return lo, hi
}

// step closes one node whose LP bound propagation proves infeasible,
// or solves its LP against the incumbent as the pruning cutoff and
// either ends the chain (pruned/integral) or branches. Of the search's
// state it changes only the effort.
func (b *bb) step(cur *node, ws *lpWorkspace) (stepOut, error) {
	lo, hi := b.materialize(cur, ws)
	if b.propagate(cur, lo, hi, ws) {
		b.effort.PropPruned++
		if debugChecks&debugProp != 0 {
			b.checkPropPrune(cur, lo, hi)
		}
		return stepOut{pruned: true}, nil // infeasible, proven without an LP
	}
	st, obj, x, e, err := solveLP(b.sf, lo, hi, b.iterLimit, cur.hint, cur.snap, restartDual, ws)
	e.TreeIters = e.SimplexIter
	b.effort.add(e)
	if err != nil {
		return stepOut{}, err
	}
	if st != lpOptimal || obj >= b.bestObj-1e-9 {
		return stepOut{pruned: true}, nil // infeasible or dominated subtree
	}
	if integral(b.sf, x) {
		return stepOut{integral: true, obj: obj, x: x}, nil
	}
	j := fractionalVar(b.sf, x)
	if j < 0 {
		return stepOut{pruned: true}, nil
	}
	// Capture this node's optimal basis for the children to inherit —
	// now, while the workspace still holds it.
	var snap *basisSnapshot
	if b.sf.dualOK {
		snap = ws.captureBasis(b.sf)
	}
	floor := math.Floor(x[j])
	frac := x[j] - floor
	down := child(cur, j, lo[j], math.Min(hi[j], floor), obj, x, snap)
	up := child(cur, j, math.Max(lo[j], floor+1), hi[j], obj, x, snap)
	out := stepOut{obj: obj, x: x, follow: down, deferred: up}
	// Follow the side the LP leans toward and queue the other; in a
	// neighbourhood search, follow the side that excludes the centre's
	// value instead.
	followUp := frac > 0.5
	if b.centre != nil {
		followUp = math.Round(b.centre[j]) <= floor
	}
	if followUp {
		out.follow, out.deferred = up, down
	}
	return out, nil
}

// push assigns the node its queue ID and inserts it.
func (b *bb) push(nd *node) {
	nd.id = b.nextID
	b.nextID++
	heap.Push(&b.queue, nd)
}

// projectStart maps a caller-supplied MIP start onto the lowered
// model: integer variables are rounded, all values are clamped to
// their bounds, and the result is kept only if it satisfies every
// (row-scaled) constraint. Returns (nil, +Inf) when the projected
// point is infeasible. The returned objective is in minimization
// sense, matching the search's internal convention.
func projectStart(sf *standardForm, start []float64) ([]float64, float64) {
	x := make([]float64, sf.nStruct)
	for j := 0; j < sf.nStruct; j++ {
		v := start[j]
		if sf.intVar[j] {
			v = math.Round(v)
		}
		x[j] = math.Min(math.Max(v, sf.lo[j]), sf.hi[j])
	}
	act := make([]float64, sf.m)
	for j, col := range sf.cols {
		if x[j] == 0 {
			continue
		}
		for k, i := range col.ind {
			act[i] += col.val[k] * x[j]
		}
	}
	for i := 0; i < sf.m; i++ {
		tol := 1e-6 * math.Max(1, math.Abs(sf.b[i]))
		ok := false
		switch sf.ops[i] {
		case LE:
			ok = act[i] <= sf.b[i]+tol
		case GE:
			ok = act[i] >= sf.b[i]-tol
		case EQ:
			ok = math.Abs(act[i]-sf.b[i]) <= tol
		}
		if !ok {
			return nil, math.Inf(1)
		}
	}
	obj := 0.0
	for j := 0; j < sf.nStruct; j++ {
		obj += sf.cost[j] * x[j]
	}
	return x, obj
}

// relGap returns the relative optimality gap between an incumbent
// objective and a proven bound (both in the same sense): |best-bound| /
// |best|. A converged pair (absolute difference within 1e-9) reports 0
// regardless of scale. A zero incumbent with a nonzero difference
// reports +Inf — the relative gap is undefined at zero, and any finite
// answer (the old max(1,|best|) denominator in particular) lets a
// near-zero incumbent falsely satisfy Options.Gap while the true
// optimum is unboundedly far away in relative terms. Incumbent and
// bound straddling zero yield a gap > 1, which no practical Gap
// setting accepts.
func relGap(best, bound float64) float64 {
	diff := math.Abs(best - bound)
	if diff <= 1e-9 {
		return 0
	}
	if best == 0 {
		return math.Inf(1)
	}
	return diff / math.Abs(best)
}

// integral reports whether all integer variables take integral values.
func integral(sf *standardForm, x []float64) bool {
	for j, isInt := range sf.intVar {
		if !isInt {
			continue
		}
		if math.Abs(x[j]-math.Round(x[j])) > intTol {
			return false
		}
	}
	return true
}

// fractionalVar picks the branching variable: among fractional integer
// variables, the highest declared priority class wins, most-fractional
// within it. Returns -1 if integral.
func fractionalVar(sf *standardForm, x []float64) int {
	best, bestScore, bestPri := -1, -1.0, math.MinInt
	for j, isInt := range sf.intVar {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		frac := math.Min(f, 1-f)
		if frac <= intTol {
			continue
		}
		pri := sf.branch[j]
		if pri > bestPri || (pri == bestPri && frac > bestScore) {
			bestPri = pri
			bestScore = frac
			best = j
		}
	}
	return best
}

// child builds the subproblem of parent with variable j's bounds
// narrowed to [newLo, newHi]; nil when the domain would be empty. The
// child is a delta record — no bound vectors are cloned.
func child(parent *node, j int, newLo, newHi, bound float64, hint []float64, snap *basisSnapshot) *node {
	if newLo > newHi {
		return nil
	}
	return &node{
		parent: parent,
		bvar:   j,
		blo:    newLo,
		bhi:    newHi,
		bound:  bound,
		depth:  parent.depth + 1,
		hint:   hint,
		snap:   snap,
	}
}

// diveBatchFrac is the fractionality below which the dive considers a
// variable "nearly decided" and fixes it in bulk: every integer
// variable this close to its rounding is fixed in one step before the
// single re-solve. Large placement models carry dozens of
// barely-fractional indicator variables at the root, and fixing them
// one LP at a time is what used to dominate joint-model solve time.
const diveBatchFrac = 0.1

// diveHeuristic repeatedly fixes the most nearly-integral fractional
// variables to their rounded values and re-solves, hoping to land on
// an integer feasible incumbent quickly. Each step fixes the whole
// batch of variables within diveBatchFrac of integral (at minimum the
// single least-fractional one); if the batched re-solve comes back
// infeasible the step retries with just that single variable, so the
// batching is a pure LP-count optimization, never a quality cliff.
//
// Every step restarts from the previous step's optimal basis by warm
// primal simplex (warm.go) — the first from the root's, snap — and a
// failed batch's single-fix retry restarts from the same basis. Only
// the basics the fix pushed outside their bounds need repair, so a step
// costs a handful of pivots where a cold two-phase solve costs a
// hundred; a restart that cannot finish falls back cold (counted).
//
// The dive deliberately does NOT use the dual re-solver: a dive is an
// incumbent hunt, and which optimal vertex the LP returns decides
// whether the rounding sequence lands somewhere good. The primal moves
// from the previous step's vertex toward a nearby optimum, which is
// what makes rounding converge; the dual stops at whichever alternate
// optimum its pivot path reaches first, and on degenerate placement
// models that wrecks the dive's incumbent quality (observed: 3481 vs
// 9523 on the NetCache drift model, which in turn blew the tree search
// up by three orders of magnitude). Tree node re-solves only consume
// the LP *bound*, so they keep the dual path.
func diveHeuristic(sf *standardForm, lo, hi, x0 []float64, snap *basisSnapshot, iterLimit int, total *Effort, ws *lpWorkspace) ([]float64, float64, bool) {
	lo = append([]float64(nil), lo...)
	hi = append([]float64(nil), hi...)
	x := x0
	batch := make([]int, 0, sf.nStruct) // fixed this step, bestJ first
	var savedLo, savedHi []float64
	for depth := 0; depth < 4*len(sf.intVar)+8; depth++ {
		if integral(sf, x) {
			obj := 0.0
			for j := 0; j < sf.nStruct; j++ {
				obj += sf.cost[j] * x[j]
			}
			return x, obj, true
		}
		// Gather the step's batch: the least-fractional variable plus
		// everything else within diveBatchFrac of integral.
		bestJ, bestFrac := -1, 2.0
		batch = batch[:0]
		for j, isInt := range sf.intVar {
			if !isInt {
				continue
			}
			f := x[j] - math.Floor(x[j])
			frac := math.Min(f, 1-f)
			if frac <= intTol {
				continue
			}
			if frac < bestFrac {
				bestFrac = frac
				bestJ = j
			}
			if frac <= diveBatchFrac {
				batch = append(batch, j)
			}
		}
		if bestJ < 0 {
			return nil, 0, false
		}
		if len(batch) == 0 {
			batch = append(batch, bestJ)
		}
		savedLo = append(savedLo[:0], lo...)
		savedHi = append(savedHi[:0], hi...)
		for _, j := range batch {
			r := math.Round(x[j])
			r = math.Min(math.Max(r, lo[j]), hi[j])
			lo[j], hi[j] = r, r
		}
		st, nx, err := diveSolve(sf, lo, hi, iterLimit, x, snap, total, ws)
		if err != nil {
			return nil, 0, false
		}
		if st != lpOptimal && len(batch) > 1 {
			// The batch over-constrained the LP; retry fixing only the
			// least-fractional variable.
			copy(lo, savedLo)
			copy(hi, savedHi)
			r := math.Round(x[bestJ])
			r = math.Min(math.Max(r, lo[bestJ]), hi[bestJ])
			lo[bestJ], hi[bestJ] = r, r
			st, nx, err = diveSolve(sf, lo, hi, iterLimit, x, snap, total, ws)
			if err != nil {
				return nil, 0, false
			}
		}
		if st != lpOptimal {
			return nil, 0, false
		}
		x = nx
		snap = ws.captureBasis(sf)
	}
	return nil, 0, false
}

// diveSolve is one dive LP: a warm primal restart from snap, falling
// back to a cold solve hinted by x. Under debugDives every step the
// restart solved is re-solved cold on a scratch workspace as well, and
// the two must agree on the status and, to 1e-9 relative, on the
// objective.
func diveSolve(sf *standardForm, lo, hi []float64, iterLimit int, x []float64, snap *basisSnapshot, total *Effort, ws *lpWorkspace) (lpStatus, []float64, error) {
	st, obj, nx, e, err := solveLP(sf, lo, hi, iterLimit, x, snap, restartPrimal, ws)
	total.add(e)
	if debugChecks&debugDives != 0 && err == nil && e.WarmRestarts > 0 {
		cst, cobj, _, _, cerr := solveLP(sf, lo, hi, iterLimit, x, nil, restartPrimal, newWorkspace(sf))
		if cerr == nil && (cst != st || (st == lpOptimal && math.Abs(cobj-obj) > 1e-9*math.Max(1, math.Abs(cobj)))) {
			panic(fmt.Sprintf("ilp: dive step: warm restart gives %v (objective %v), cold solve %v (objective %v)", st, obj, cst, cobj))
		}
	}
	return st, nx, err
}

// Verify checks that the assignment satisfies every constraint and
// bound of the model within tolerance, returning a descriptive error
// for the first violation. It is used by tests and by the compiler's
// own paranoia checks.
func Verify(m *Model, values []float64) error {
	if len(values) != len(m.vars) {
		return fmt.Errorf("ilp: assignment has %d values for %d variables", len(values), len(m.vars))
	}
	for i, v := range m.vars {
		x := values[i]
		if x < v.lo-1e-5 || x > v.hi+1e-5 {
			return fmt.Errorf("ilp: variable %s = %g violates bounds [%g, %g]", v.name, x, v.lo, v.hi)
		}
		if v.typ != Continuous && math.Abs(x-math.Round(x)) > 1e-5 {
			return fmt.Errorf("ilp: variable %s = %g is not integral", v.name, x)
		}
	}
	for _, c := range m.constrs {
		lhs, scale := 0.0, 1.0
		for k, v := range c.vars {
			lhs += c.coef[k] * values[v]
			scale = math.Max(scale, math.Abs(c.coef[k]))
		}
		tol := 1e-5 * scale
		ok := false
		switch c.op {
		case LE:
			ok = lhs <= c.rhs+tol
		case GE:
			ok = lhs >= c.rhs-tol
		case EQ:
			ok = almostEqual(lhs, c.rhs, tol)
		}
		if !ok {
			return fmt.Errorf("ilp: constraint %s violated: %g %s %g", c.name, lhs, c.op, c.rhs)
		}
	}
	return nil
}
