package ilp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// The simplex implementation solves LPs of the internal standard form
//
//	minimize   c·x
//	subject to A·x (op) b,   lo <= x <= hi
//
// using a bounded-variable revised primal simplex over a factored basis
// (factor.go: singleton peel, sparse LU of the nucleus, Forrest–Tomlin
// updates). Inequalities become equalities via one slack column per
// row; rows whose slack cannot absorb the initial residual receive an
// artificial column, and a phase-1 objective drives total artificial
// mass to zero before the real objective is optimized.

const (
	feasTol  = 1e-7 // bound/feasibility tolerance
	pivotTol = 1e-9 // minimum acceptable pivot magnitude
	dualTol  = 1e-7 // reduced-cost optimality tolerance
	// feasMass is how far off its rows an LP point may be and still be
	// feasible: phase 1 accepts a point whose artificial mass, the
	// summed violation of the row-scaled constraints, is at most
	// feasMass. So a row proves infeasibility from its activity range
	// (rowActivity.infeasible) only past feasMass in the same units,
	// else bound propagation would close nodes the LP calls feasible.
	feasMass = 1e-6
	// stallLimit is the number of non-improving iterations tolerated
	// before switching to Bland's rule to escape degenerate cycling.
	stallLimit = 256
)

// refactorEvery bounds how many pivots may elapse (how many updates the
// factor may carry) between refactorizations of the basis.
const refactorEvery = 128

var errSingularBasis = errors.New("ilp: singular basis during refactorization")

// errNumerical signals accumulated numerical drift; the driver retries
// with a tighter refactorization cadence.
var errNumerical = errors.New("ilp: numerical drift detected")

// errDeadline signals that Options.TimeLimit expired inside a simplex
// run. The branch-and-bound drivers translate it into a StatusLimit
// stop; without this in-LP check a single degenerate relaxation (the
// root LP of a heavily reweighted warm re-solve is the canonical case)
// can overrun the time limit by minutes before any between-node check
// fires.
var errDeadline = errors.New("ilp: time limit reached during an LP solve")

// deadlineCheckEvery is how many simplex iterations elapse between
// wall-clock reads in iterate — frequent enough that an LP overshoots
// the deadline by at most a few milliseconds, rare enough that the
// time.Now() cost is invisible.
const deadlineCheckEvery = 64

// spCol is one sparse column of the constraint matrix.
type spCol struct {
	ind []int32
	val []float64
}

// lowering is a model's rows and variables lowered for the simplex:
// structural columns first, one slack column per row appended by the
// solver itself. It holds what the objective does not change — the
// bounds after the presolve, the row-scaled columns and their row-wise
// copy — and is never written once built, so one lowering serves every
// solve of a model and of its clones that changed only the objective
// (lowCell), at once if they run concurrently.
type lowering struct {
	nStruct int     // number of structural (model) columns
	m       int     // number of rows
	cols    []spCol // structural columns only, length nStruct
	// The same matrix by row (CSR over the structural columns), for
	// products that start from a sparse row-space vector: reduced costs
	// from the duals, the dual simplex's pivot row from a row of B⁻¹.
	rowStart []int32
	rowCol   []int32
	rowVal   []float64
	ops      []Op      // per-row comparison before slack introduction
	b        []float64 // right-hand sides (row-scaled)
	lo, hi   []float64 // structural bounds, length nStruct
	intVar   []bool    // structural integrality markers
	branch   []int     // branching priority per structural column
	// pre records the root presolve's reductions for Solution reporting.
	pre PresolveStats
}

// standardForm is one solve's view of a lowering: a copy of its
// headers, whose slices it shares and never writes (the hot loops read
// them without a further indirection), priced by the model's objective,
// and the settings the solve stamps on itself.
type standardForm struct {
	lowering
	cost []float64 // structural minimization costs
	objK float64   // objective constant
	// deadline, when set, aborts any simplex run past it with
	// errDeadline. Solve stamps it once before the root LP; it is read
	// only afterwards.
	deadline time.Time
	// dualOK enables dual-simplex child re-solves (set from
	// Options.disableDual by Solve).
	dualOK bool
	// warmCap, when positive, caps the simplex iterations of one warm
	// primal restart (warm.go): the model's own cold root-LP count. Solve
	// sets it before the dive; the tree never restarts primal.
	warmCap int
	// oneAttempt makes solveLP give up on numerical trouble instead of
	// retrying at finer refactorization cadences: the neighbourhood
	// search's ball (neighbour.go), where a heuristic ends rather than
	// grinds.
	oneAttempt bool
}

// lowCell holds a lowering, built by the first solve that asks for it,
// and the workspaces of the solves over it. Model.Clone gives the model
// and the copy one cell, and a mutator that changes a variable or adds
// a row gives its model none, so a cell only ever serves models with
// the same rows and variables. It is freed with the last of them.
type lowCell struct {
	once sync.Once
	low  *lowering
	err  error

	mu   sync.Mutex
	free []*lpWorkspace // reset, sized for low
}

// get returns the cell's lowering of m, building it on the first call;
// built reports that this call built it. An error (a row the bounds
// cannot satisfy) is kept like a lowering.
func (c *lowCell) get(m *Model, presolve bool) (low *lowering, built bool, err error) {
	c.once.Do(func() {
		c.low, c.err = lower(m, presolve)
		built = true
	})
	return c.low, built, c.err
}

// take returns a reset workspace for solves over sf's lowering: one a
// finished solve put back, or a new one.
func (c *lowCell) take(sf *standardForm) *lpWorkspace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		ws := c.free[n-1]
		c.free = c.free[:n-1]
		return ws
	}
	return newWorkspace(sf)
}

// put resets ws and keeps it for the cell's next solve.
func (c *lowCell) put(ws *lpWorkspace) {
	ws.reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.free = append(c.free, ws)
}

// lower builds m's lowering: the bounds, the rows gathered and, when
// presolve is set, reduced to a fixpoint (presolve.go), then the
// row-scaled columns and their row-wise copy.
func lower(m *Model, presolve bool) (*lowering, error) {
	low := &lowering{
		nStruct: len(m.vars),
		m:       len(m.constrs),
		cols:    make([]spCol, len(m.vars)),
		ops:     make([]Op, len(m.constrs)),
		b:       make([]float64, len(m.constrs)),
		lo:      make([]float64, len(m.vars)),
		hi:      make([]float64, len(m.vars)),
		intVar:  make([]bool, len(m.vars)),
		branch:  make([]int, len(m.vars)),
	}
	for j, v := range m.vars {
		low.lo[j], low.hi[j] = v.lo, v.hi
		low.intVar[j] = v.typ != Continuous
		low.branch[j] = v.pri
	}
	// Gather rows into the presolve intermediate form, dropping
	// constant rows after a direct satisfiability check.
	preRows := make([]preRow, 0, len(m.constrs))
	for _, c := range m.constrs {
		nonzero := false
		for _, coef := range c.coef {
			if coef != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			// Constant row: check satisfiability directly, then drop.
			ok := true
			switch c.op {
			case LE:
				ok = 0 <= c.rhs+feasTol
			case GE:
				ok = 0 >= c.rhs-feasTol
			case EQ:
				ok = almostEqual(0, c.rhs, feasTol)
			}
			if !ok {
				return nil, fmt.Errorf("ilp: constraint %q is trivially infeasible", c.name)
			}
			continue
		}
		// The presolve zeroes substituted coefficients, never the
		// variables: the model's own index slice is shared.
		preRows = append(preRows, preRow{
			name: c.name,
			vars: c.vars,
			coef: slices.Clone(c.coef),
			op:   c.op,
			rhs:  c.rhs,
		})
	}
	if presolve {
		stats, err := presolveFixpoint(low, preRows)
		if err != nil {
			return nil, err
		}
		low.pre = stats
	}
	// Build the scaled columns from the surviving rows (substituted
	// terms have zero coefficients and are skipped; a row left with no
	// terms was classified by the presolve activity checks already).
	rows := 0
	for r := range preRows {
		pr := &preRows[r]
		if pr.dropped {
			continue
		}
		// Row scaling: divide by the largest coefficient magnitude.
		scale := 0.0
		for _, coef := range pr.coef {
			scale = math.Max(scale, math.Abs(coef))
		}
		if scale == 0 {
			// All terms substituted away: the activity checks in
			// presolveRow proved it satisfiable, or it would have
			// errored; nothing left to enforce.
			continue
		}
		i := rows
		rows++
		low.ops[i] = pr.op
		low.b[i] = pr.rhs / scale
		for k, v := range pr.vars {
			if pr.coef[k] == 0 {
				continue
			}
			col := &low.cols[v]
			col.ind = append(col.ind, int32(i))
			col.val = append(col.val, pr.coef[k]/scale)
		}
	}
	low.m = rows
	low.ops = low.ops[:rows]
	low.b = low.b[:rows]
	low.buildRows()
	return low, nil
}

// view returns a solve's standard form over low, priced by m's
// objective: negated for maximization, as the simplex minimizes.
func (low *lowering) view(m *Model) *standardForm {
	sf := &standardForm{lowering: *low, cost: make([]float64, low.nStruct)}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for v, c := range m.obj.coef {
		sf.cost[v] = sign * c
	}
	sf.objK = sign * m.obj.konst
	return sf
}

// buildRows derives the row-wise copy of the structural columns. Within
// a row the entries are in column order, as each column's are in row
// order, so a sum accumulated through either copy adds the same terms in
// the same order.
func (low *lowering) buildRows() {
	low.rowStart = make([]int32, low.m+1)
	for j := range low.cols {
		for _, r := range low.cols[j].ind {
			low.rowStart[r+1]++
		}
	}
	for r := 0; r < low.m; r++ {
		low.rowStart[r+1] += low.rowStart[r]
	}
	nnz := low.rowStart[low.m]
	low.rowCol = make([]int32, nnz)
	low.rowVal = make([]float64, nnz)
	next := append([]int32(nil), low.rowStart[:low.m]...)
	for j := range low.cols {
		col := &low.cols[j]
		for k, r := range col.ind {
			low.rowCol[next[r]] = int32(j)
			low.rowVal[next[r]] = col.val[k]
			next[r]++
		}
	}
}

// clone duplicates the bound vectors (the only per-node mutable state)
// while sharing the immutable matrix.
func (sf *standardForm) cloneBounds() (lo, hi []float64) {
	lo = append([]float64(nil), sf.lo...)
	hi = append([]float64(nil), sf.hi...)
	return lo, hi
}

const (
	nbLower int8 = iota
	nbUpper
	inBasis
)

// lpWorkspace holds the per-solve simplex buffers so repeated LP solves
// (branch and bound runs thousands against one standardForm) reuse
// memory instead of hammering the allocator. A workspace is sized for
// one standardForm and is NOT safe for concurrent use: the
// branch-and-bound search owns one, which is the only simplex state
// shared between a node and its successor. The cached slack columns are
// immutable after construction.
type lpWorkspace struct {
	cols   []spCol
	lo, hi []float64
	cost   []float64 // phase-2 cost buffer
	p1     []float64 // setup/phase-1 cost buffer
	status []int8
	basis  []int32
	fac    basisFactor // the factored basis (factor.go)
	xB     []float64
	resid  []float64
	y, w   []float64
	rho    []float64 // dual pivot row of B⁻¹
	slack  []spCol   // cached unit slack columns, one per row

	// Solve inputs the factor consumes back to zero: rhs is a row-space
	// scatter buffer for ftran, cb a position-space one for btran. Both
	// are all-zero between uses.
	rhs, cb []float64
	// Per-column buffers: reduced costs, the dual pivot row, and the
	// primal's banned-column marks.
	d, alpha []float64
	banned   []bool

	// Delta-node materialization scratch (branchbound.go): the node
	// chain's bound deltas are applied over the root bounds here, so
	// child nodes never clone full bound vectors.
	nodeLo, nodeHi []float64
	chain          []*node
	// Node bound propagation scratch (propagate.go).
	prop nodeProp

	// Dual re-solve state. basisValid reports that basis/status/fac
	// describe the optimal basis of the most recent solve on this
	// workspace; resident is the snapshot captured from that state (nil
	// unless captureBasis ran after the solve). When a dual re-solve
	// receives snap == resident the refactorization is skipped — the
	// factors are already in the workspace. pivotAge counts pivots since
	// the last refactorization ACROSS solves, so a long plunge chain of
	// cheap dual re-solves still refactorizes on the usual cadence.
	basisValid bool
	resident   *basisSnapshot
	pivotAge   int
	dcand      []dualCand // dual ratio-test candidate scratch
	// The columns the dual pivot row touches (dual.go): listed in
	// touched, marked in marked. Both are empty between ratio tests, and
	// alpha is zero outside touched.
	touched []int32
	marked  []bool

	// race is set on the two workspaces of a raced root LP while it runs
	// (root.go); the simplex on each reads the other side's count there.
	race *rootRace
}

// invalidate forgets any resident basis. The search calls it at every
// chain start, so basis residency is a structural property of the
// search tree (a parent and the child it plunges into) rather than an
// artifact of which chain ran before: a chain's first node always
// refactors its inherited basis.
func (ws *lpWorkspace) invalidate() {
	ws.resident = nil
	ws.basisValid = false
}

// reset returns ws, after a solve that ended anywhere (an errDeadline
// stop included), to what newWorkspace gave that solve as far as the
// next one can tell: no resident basis and no pivots counted, the
// scratch that is all zero between uses zeroed, and no node of the
// finished search referenced.
func (ws *lpWorkspace) reset() {
	ws.invalidate()
	ws.pivotAge = 0
	clear(ws.rhs)
	clear(ws.cb)
	clear(ws.alpha)
	clear(ws.marked)
	ws.touched = ws.touched[:0]
	clear(ws.fac.work)
	clear(ws.fac.mu)
	clear(ws.fac.mark)
	clear(ws.chain[:cap(ws.chain)])
	ws.chain = ws.chain[:0]
	ws.prop.reset()
}

// newWorkspace allocates buffers for solving LPs over sf. Capacities
// cover the worst case of one artificial column per row.
func newWorkspace(sf *standardForm) *lpWorkspace {
	m := sf.m
	capN := sf.nStruct + 2*m
	ws := &lpWorkspace{
		cols:   make([]spCol, 0, capN),
		lo:     make([]float64, 0, capN),
		hi:     make([]float64, 0, capN),
		cost:   make([]float64, 0, capN),
		p1:     make([]float64, 0, capN),
		status: make([]int8, 0, capN),
		basis:  make([]int32, m),
		fac:    newBasisFactor(m),
		xB:     make([]float64, m),
		resid:  make([]float64, m),
		y:      make([]float64, m),
		w:      make([]float64, m),
		rho:    make([]float64, m),
		slack:  make([]spCol, m),
		rhs:    make([]float64, m),
		cb:     make([]float64, m),
		d:      make([]float64, capN),
		alpha:  make([]float64, capN),
		marked: make([]bool, capN),
		banned: make([]bool, capN),
	}
	for i := 0; i < m; i++ {
		ws.slack[i] = spCol{ind: []int32{int32(i)}, val: []float64{1}}
	}
	ws.nodeLo = make([]float64, sf.nStruct)
	ws.nodeHi = make([]float64, sf.nStruct)
	ws.prop = newNodeProp(sf)
	return ws
}

type simplex struct {
	sf        *standardForm
	ws        *lpWorkspace
	n         int // total columns: struct + slack + artificial
	nSlack    int
	cols      []spCol // all columns
	lo, hi    []float64
	cost      []float64
	status    []int8
	basis     []int32
	xB        []float64
	iters     int
	pivots    int // pivots since last refactorization
	refEvery  int // refactorization cadence for this attempt
	refactors int // total basis refactorizations
}

type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
)

// restart selects how solveLP starts from an inherited basis.
type restart int8

const (
	// restartDual re-solves by dual simplex (dual.go): the snapshot is
	// the parent's basis of a tree child, dual feasible under the
	// child's bounds.
	restartDual restart = iota
	// restartPrimal re-solves by bound-shifted primal simplex (warm.go):
	// the dive's steps, whose vertex choice matters.
	restartPrimal
)

// solveLP solves the standard form with the given structural bounds
// (which may be tighter than sf's own, e.g. from branch and bound).
// It returns the LP status, objective value (minimization sense,
// without objK), structural solution values, and the solve's Effort
// (its iteration split and Nodes left to the caller).
// Numerical drift detected at a refactorization triggers a retry with
// a tighter refactorization cadence.
// hint, when non-nil, is a (near-)feasible point — typically the
// parent node's LP solution — used to warm the initial nonbasic bound
// assignment.
// snap, when non-nil, is an optimal basis of an earlier LP over the
// same rows; how says which warm re-solver starts from it — the dual
// (dual.go, a tree child's inherited basis, skipped when sf.dualOK is
// off) or the bound-shifted primal (warm.go). The primal-with-
// artificials path below is the counted fallback of either.
// ws supplies reusable buffers; nil allocates a fresh workspace (one
// per search is the intended steady state).
func solveLP(sf *standardForm, lo, hi []float64, iterLimit int, hint []float64, snap *basisSnapshot, how restart, ws *lpWorkspace) (lpStatus, float64, []float64, Effort, error) {
	if ws == nil {
		ws = newWorkspace(sf)
	}
	var total Effort
	if snap != nil && (how == restartPrimal || sf.dualOK) {
		warm := solveDual
		if how == restartPrimal {
			warm = solvePrimalWarm
		}
		st, obj, x, e, ok, err := warm(sf, lo, hi, iterLimit, snap, ws)
		total = e
		switch {
		case how == restartDual:
			total.DualIters = e.SimplexIter
		case ok:
			total.WarmRestarts = 1
		}
		if err != nil {
			return st, obj, x, total, err // errDeadline
		}
		if ok {
			return st, obj, x, total, nil
		}
		if how == restartPrimal {
			total.WarmFallbacks++
		} else {
			total.PrimalFallbacks++
		}
	}
	cadences := []int{refactorEvery, 16, 4, 1}
	if sf.oneAttempt {
		cadences = cadences[:1]
	}
	for _, cadence := range cadences {
		st, obj, x, e, err := solveLPOnce(sf, lo, hi, iterLimit, cadence, hint, ws)
		total.add(e)
		if errors.Is(err, errNumerical) || errors.Is(err, errSingularBasis) {
			continue
		}
		return st, obj, x, total, err
	}
	return lpInfeasible, 0, nil, total, errNumerical
}

func solveLPOnce(sf *standardForm, lo, hi []float64, iterLimit, cadence int, hint []float64, ws *lpWorkspace) (lpStatus, float64, []float64, Effort, error) {
	ws.invalidate() // the run below overwrites any resident basis
	m := sf.m
	s, empty := newSimplex(sf, lo, hi, cadence, ws)
	if empty {
		return lpInfeasible, 0, nil, Effort{}, nil
	}
	// The setup phase appends artificial columns to s.cost; phase 1
	// then flips their costs to 1 in place, so the buffer must start
	// zeroed. Phase 2 swaps in the model costs.
	s.cost = ws.p1[:s.n]
	clear(s.cost)
	for j := 0; j < sf.nStruct; j++ {
		// Nonbasic structurals start at the bound nearest the hint
		// (the parent LP solution in branch and bound), else lower.
		s.status[j] = nbLower
		if hint != nil && j < len(hint) && !math.IsInf(s.hi[j], 1) &&
			math.Abs(hint[j]-s.hi[j]) < math.Abs(hint[j]-s.lo[j]) {
			s.status[j] = nbUpper
		}
	}
	// Initial basis: slack where the residual fits its bounds,
	// otherwise an artificial column absorbing the residual.
	resid := ws.resid[:m]
	copy(resid, sf.b)
	for j := 0; j < sf.nStruct; j++ {
		x := s.nbValue(j)
		if x == 0 {
			continue
		}
		col := &s.cols[j]
		for k, r := range col.ind {
			resid[r] -= col.val[k] * x
		}
	}
	anyArtificial := false
	for i := 0; i < m; i++ {
		j := sf.nStruct + i
		r := resid[i]
		if r >= s.lo[j]-feasTol && r <= s.hi[j]+feasTol {
			s.basis[i] = int32(j)
			s.status[j] = inBasis
			s.xB[i] = r
			continue
		}
		// Slack nonbasic at its nearest bound; artificial takes the rest.
		sval := math.Min(math.Max(r, s.lo[j]), s.hi[j])
		if math.IsInf(sval, 0) {
			// Cannot happen: the violated bound is always finite.
			return lpInfeasible, 0, nil, Effort{}, fmt.Errorf("ilp: internal: infinite slack bound hit on row %d", i)
		}
		if sval == s.lo[j] {
			s.status[j] = nbLower
		} else {
			s.status[j] = nbUpper
		}
		rr := r - sval
		sign := 1.0
		if rr < 0 {
			sign = -1
		}
		a := len(s.cols)
		s.cols = append(s.cols, spCol{ind: []int32{int32(i)}, val: []float64{sign}})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.cost = append(s.cost, 0)
		s.status = append(s.status, inBasis)
		s.basis[i] = int32(a)
		s.xB[i] = math.Abs(rr)
		anyArtificial = true
	}
	s.n = len(s.cols)
	// The starting basis is all unit columns: the factor is its peel.
	if err := ws.fac.refactor(s.cols, s.basis); err != nil {
		return lpInfeasible, 0, nil, Effort{}, err
	}

	if anyArtificial {
		// Phase 1: minimize total artificial mass. s.cost is the zeroed
		// p1 buffer, so only the artificial entries need setting.
		for j := sf.nStruct + m; j < s.n; j++ {
			s.cost[j] = 1
		}
		st, err := s.iterate(iterLimit)
		if err != nil {
			return lpInfeasible, 0, nil, s.effort(), err
		}
		if st == lpUnbounded {
			return lpInfeasible, 0, nil, s.effort(), errors.New("ilp: internal: phase-1 unbounded")
		}
		if s.objValue() > feasMass {
			return lpInfeasible, 0, nil, s.effort(), nil
		}
		// Pin artificials at zero.
		for j := sf.nStruct + m; j < s.n; j++ {
			s.hi[j] = 0
		}
	}
	s.modelCosts()

	st, err := s.iterate(iterLimit)
	if err != nil {
		return lpInfeasible, 0, nil, s.effort(), err
	}
	if st == lpUnbounded {
		return lpUnbounded, 0, nil, s.effort(), nil
	}
	// Extract structural values.
	if err := s.refactorize(); err != nil {
		return lpInfeasible, 0, nil, s.effort(), err
	}
	if debugChecks&debugInvariants != 0 {
		for i, bj := range s.basis {
			if s.xB[i] < s.lo[bj]-1e-6 || s.xB[i] > s.hi[bj]+1e-6 {
				panic(fmt.Sprintf("ilp: basic col %d (row %d) = %g outside [%g, %g]", bj, i, s.xB[i], s.lo[bj], s.hi[bj]))
			}
		}
	}
	x, obj := s.extract()
	// The extraction refactorized, so the workspace now holds a clean
	// optimal basis a child's dual re-solve can inherit.
	ws.basisValid = true
	ws.pivotAge = 0
	return lpOptimal, obj, x, s.effort(), nil
}

// newSimplex sets up a simplex over the structural and slack columns,
// refactorizing every cadence pivots: structural bounds lo/hi, slack
// bounds by row sense. Basis, statuses and costs are left to the caller.
// empty reports a variable with lo > hi: the LP is infeasible whatever
// the basis.
func newSimplex(sf *standardForm, lo, hi []float64, cadence int, ws *lpWorkspace) (s *simplex, empty bool) {
	m := sf.m
	n := sf.nStruct + m
	s = &simplex{
		sf:       sf,
		ws:       ws,
		n:        n,
		nSlack:   m,
		cols:     ws.cols[:n],
		lo:       ws.lo[:n],
		hi:       ws.hi[:n],
		status:   ws.status[:n],
		basis:    ws.basis[:m],
		xB:       ws.xB[:m],
		refEvery: cadence,
	}
	copy(s.cols, sf.cols)
	copy(s.lo, lo)
	copy(s.hi, hi)
	for j := 0; j < sf.nStruct; j++ {
		if s.lo[j] > s.hi[j]+feasTol {
			return s, true
		}
	}
	for i := 0; i < m; i++ {
		j := sf.nStruct + i
		s.cols[j] = ws.slack[i] // cached in the workspace; never mutated
		switch sf.ops[i] {
		case LE:
			s.lo[j], s.hi[j] = 0, Inf
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	return s, false
}

// modelCosts prices the columns with the model's costs: structurals
// from the model, slacks and artificials at zero.
func (s *simplex) modelCosts() {
	s.cost = append(s.ws.cost[:0], s.sf.cost...)
	for len(s.cost) < s.n {
		s.cost = append(s.cost, 0)
	}
}

// extract reads the structural values and their objective off the
// current basis. A basic value within rounding of an integer is returned
// as that integer: the models' data are integers, so their vertices
// mostly are too, and the solves leave such a value a few ulps off
// where callers sum the values and compare the sum against integer
// floors exactly.
func (s *simplex) extract() (x []float64, obj float64) {
	sf := s.sf
	x = make([]float64, sf.nStruct)
	for j := 0; j < sf.nStruct; j++ {
		if s.status[j] != inBasis {
			x[j] = s.nbValue(j)
		}
	}
	for i, bj := range s.basis {
		if int(bj) < sf.nStruct {
			v := s.xB[i]
			if r := math.Round(v); math.Abs(v-r) <= 1e-11*math.Max(1, math.Abs(r)) {
				v = r
			}
			x[bj] = v
		}
	}
	for j := 0; j < sf.nStruct; j++ {
		obj += sf.cost[j] * x[j]
	}
	return x, obj
}

// nbValue returns the value a nonbasic column takes at its current bound.
func (s *simplex) nbValue(j int) float64 {
	if s.status[j] == nbUpper {
		return s.hi[j]
	}
	return s.lo[j]
}

// objValue computes the current objective under s.cost.
func (s *simplex) objValue() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if s.status[j] != inBasis {
			obj += s.cost[j] * s.nbValue(j)
		}
	}
	for i, bj := range s.basis {
		obj += s.cost[bj] * s.xB[i]
	}
	return obj
}

// iterate runs primal simplex iterations until optimality,
// unboundedness, or the iteration limit.
func (s *simplex) iterate(iterLimit int) (lpStatus, error) {
	m := s.sf.m
	y := s.ws.y[:m]
	w := s.ws.w[:m]
	d := s.ws.d[:s.n]
	bland := false
	stall := 0
	lastObj := math.Inf(1)
	// The objective is advanced by each step's own change and recomputed
	// only where the basic values are (at a refactorization).
	obj := s.objValue()
	// Columns banned after a near-singular pivot attempt; cleared on
	// the next successful step.
	banned := s.ws.banned[:s.n]
	clear(banned)
	nBanned := 0
	retriedAfterBan := false
	for {
		if iterLimit > 0 && s.iters >= iterLimit {
			return lpOptimal, fmt.Errorf("ilp: simplex iteration limit (%d) exceeded", iterLimit)
		}
		if !s.sf.deadline.IsZero() && s.iters%deadlineCheckEvery == 0 &&
			time.Now().After(s.sf.deadline) {
			return lpOptimal, errDeadline
		}
		if r := s.ws.race; r != nil && int64(s.iters) >= r.dual.Load() {
			return lpOptimal, errRaceLost
		}
		s.iters++
		// Duals yᵀ = cBᵀ·B⁻¹ and the reduced costs they price.
		s.duals(y)
		s.reducedCosts(y, d)
		// Pricing.
		enter := -1
		best := dualTol
		for j := 0; j < s.n; j++ {
			st := s.status[j]
			if st == inBasis || banned[j] {
				continue
			}
			if s.lo[j] == s.hi[j] { // fixed column can never improve
				continue
			}
			var viol float64
			if st == nbLower && d[j] < -dualTol {
				viol = -d[j]
			} else if st == nbUpper && d[j] > dualTol {
				viol = d[j]
			} else {
				continue
			}
			if bland {
				enter = j
				break
			}
			if viol > best {
				best = viol
				enter = j
			}
		}
		if enter == -1 {
			if nBanned > 0 && !retriedAfterBan {
				// Re-examine banned columns once against a freshly
				// refactorized basis before declaring optimality.
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
				obj = s.objValue()
				clear(banned)
				nBanned = 0
				retriedAfterBan = true
				continue
			}
			return lpOptimal, nil
		}
		// Direction w = B⁻¹ · A_enter.
		s.ftranCol(enter, 1, w, true)
		if debugChecks&debugInvariants != 0 {
			s.checkFtran(enter, w)
		}
		sigma := 1.0
		if s.status[enter] == nbUpper {
			sigma = -1
		}
		// Ratio test: x_enter moves by sigma*t; xB moves by -sigma*t*w.
		tMax := s.hi[enter] - s.lo[enter]
		leave := -1
		leaveToUpper := false
		leavePiv := 0.0
		for i := 0; i < m; i++ {
			limit, toUpper, ok := s.rowLimit(i, -sigma*w[i])
			if !ok {
				continue
			}
			if limit < tMax-feasTol || (limit < tMax+feasTol && leave >= 0 && math.Abs(w[i]) > math.Abs(leavePiv)) {
				if limit < tMax-feasTol {
					tMax = limit
				}
				leave = i
				leaveToUpper = toUpper
				leavePiv = w[i]
			}
		}
		if math.IsInf(tMax, 1) {
			return lpUnbounded, nil
		}
		if bland && leave >= 0 {
			// Bland's anti-cycling rule needs the leaving tie broken
			// by smallest variable index among minimum-ratio rows.
			bestIdx := int32(1 << 30)
			for i := 0; i < m; i++ {
				limit, toUpper, ok := s.rowLimit(i, -sigma*w[i])
				if !ok {
					continue
				}
				if bj := s.basis[i]; limit <= tMax+feasTol && bj < bestIdx {
					bestIdx = bj
					leave = i
					leaveToUpper = toUpper
					leavePiv = w[i]
				}
			}
		}
		if leave >= 0 && math.Abs(w[leave]) < 1e-7 {
			// Committing this pivot would (nearly) singularize the
			// basis: ban the entering column and re-price.
			if !banned[enter] {
				banned[enter] = true
				nBanned++
			}
			continue
		}
		// Apply the step.
		for i := 0; i < m; i++ {
			s.xB[i] -= sigma * tMax * w[i]
		}
		obj += d[enter] * sigma * tMax
		if leave == -1 {
			// Bound flip: entering jumps to its opposite bound.
			if s.status[enter] == nbLower {
				s.status[enter] = nbUpper
			} else {
				s.status[enter] = nbLower
			}
		} else {
			if nBanned > 0 {
				clear(banned)
				nBanned = 0
				retriedAfterBan = false
			}
			enterVal := s.nbValue(enter) + sigma*tMax
			out := s.basis[leave]
			if leaveToUpper {
				s.status[out] = nbUpper
			} else {
				s.status[out] = nbLower
			}
			s.status[enter] = inBasis
			s.basis[leave] = int32(enter)
			s.xB[leave] = enterVal
			// Follow the basis change in the factor.
			if math.Abs(w[leave]) < pivotTol || !s.ws.fac.update(leave, w[leave]) {
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
				obj = s.objValue()
				continue
			}
			s.pivots++
			if s.pivots >= s.refEvery {
				if err := s.refactorize(); err != nil {
					return lpOptimal, err
				}
				obj = s.objValue()
			}
		}
		// Degeneracy bookkeeping.
		if obj < lastObj-1e-9 {
			lastObj = obj
			stall = 0
			bland = false
		} else {
			stall++
			if stall > stallLimit {
				bland = true
			}
		}
	}
}

// rowLimit is the primal ratio test's step limit for row i, whose basic
// variable moves by delta per unit step of the entering one: how far
// that step can go before the basic reaches the bound it moves toward,
// and whether that is its upper bound. ok is false when the row does
// not limit the step (delta within pivotTol of zero, or the bound it
// moves toward is infinite).
func (s *simplex) rowLimit(i int, delta float64) (limit float64, toUpper, ok bool) {
	bj := s.basis[i]
	var bound float64
	switch {
	case delta > pivotTol:
		bound, toUpper = s.hi[bj], true
		ok = bound != Inf
	case delta < -pivotTol:
		bound = s.lo[bj]
		ok = bound != -Inf
	}
	if !ok {
		return 0, false, false
	}
	limit = (bound - s.xB[i]) / delta
	if limit < 0 {
		limit = 0 // numerical guard: basic vars are feasible by invariant
	}
	return limit, toUpper, true
}

// duals fills y with the simplex multipliers yᵀ = cBᵀ·B⁻¹ under s.cost.
func (s *simplex) duals(y []float64) {
	cb := s.ws.cb[:s.sf.m]
	for k, bj := range s.basis {
		cb[k] = s.cost[bj]
	}
	s.ws.fac.btran(cb, y)
}

// reducedCosts fills d[j] = cost[j] − y·A_j for every column, walking
// the matrix by row so only rows with a non-zero multiplier are
// touched.
func (s *simplex) reducedCosts(y, d []float64) {
	sf := s.sf
	copy(d, s.cost[:s.n])
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for p := sf.rowStart[i]; p < sf.rowStart[i+1]; p++ {
			d[sf.rowCol[p]] -= yi * sf.rowVal[p]
		}
		d[sf.nStruct+i] -= yi // slack i is row i's unit column
	}
	for j := sf.nStruct + sf.m; j < s.n; j++ { // artificials: one signed unit entry
		col := &s.cols[j]
		d[j] -= y[col.ind[0]] * col.val[0]
	}
}

// ftranCol fills x with B⁻¹·(scale·A_j); enter marks column j as the
// one a following factor update brings into the basis.
func (s *simplex) ftranCol(j int, scale float64, x []float64, enter bool) {
	rhs := s.ws.rhs[:s.sf.m]
	col := &s.cols[j]
	for k, r := range col.ind {
		rhs[r] = col.val[k] * scale
	}
	s.ws.fac.ftran(rhs, x, enter)
}

// checkFtran is the factor's own invariant under debugChecks: w must
// reproduce column j through the current basis, to a normwise backward
// error ‖B·w − A_j‖∞ / (‖B‖∞·‖w‖∞ + ‖A_j‖∞) of 1e-8. (The plain
// residual is no measure here: these bases have inverses with entries
// of 1e7, and a residual is rounding error only relative to the sums it
// is left over from.)
func (s *simplex) checkFtran(j int, w []float64) {
	m := s.sf.m
	res := make([]float64, m)
	rowSum := make([]float64, m)
	var normB, normW, normA float64
	for c, bj := range s.basis {
		normW = math.Max(normW, math.Abs(w[c]))
		col := &s.cols[bj]
		for k, r := range col.ind {
			res[r] += col.val[k] * w[c]
			rowSum[r] += math.Abs(col.val[k])
		}
	}
	for _, v := range rowSum {
		normB = math.Max(normB, v)
	}
	col := &s.cols[j]
	for k, r := range col.ind {
		res[r] -= col.val[k]
		normA = math.Max(normA, math.Abs(col.val[k]))
	}
	for r, v := range res {
		if !(math.Abs(v) <= 1e-8*(normB*normW+normA)) {
			panic(fmt.Sprintf("ilp: iter %d: ftran of column %d leaves residual %g on row %d (‖B‖∞ = %g, ‖w‖∞ = %g, %d updates)", s.iters, j, v, r, normB, normW, s.ws.fac.updates()))
		}
	}
}

// effort reports this attempt's iterations and refactorizations; its
// caller books them to a path (solveLP) and a caller (Solve).
func (s *simplex) effort() Effort {
	return Effort{SimplexIter: s.iters, Refactors: s.refactors}
}

// refactorize refactors the basis and recomputes the basic values from
// scratch, then checks the recomputed basics against their bounds: a
// primal iterate must still be (near-)feasible, and drift past the
// tolerance aborts the attempt with errNumerical.
func (s *simplex) refactorize() error {
	if debugChecks&debugInvariants != 0 {
		old := append([]float64(nil), s.xB...)
		defer func() {
			for i := range old {
				if math.Abs(old[i]-s.xB[i]) > 1e-5*math.Max(1, math.Abs(s.xB[i])) {
					panic(fmt.Sprintf("ilp: iter %d: incremental xB[%d] (col %d) = %g but true value %g", s.iters, i, s.basis[i], old[i], s.xB[i]))
				}
			}
		}()
	}
	if err := s.refactorizeBasis(); err != nil {
		return err
	}
	// Drift check: the recomputed basics must still be (near-)feasible;
	// incremental updates through small pivots can silently walk the
	// iterate out of the feasible region.
	for i, bj := range s.basis {
		if s.xB[i] < s.lo[bj]-1e-6 || s.xB[i] > s.hi[bj]+1e-6 {
			if s.refEvery <= 1 && s.xB[i] > s.lo[bj]-1e-4 && s.xB[i] < s.hi[bj]+1e-4 {
				// Sub-1e-4 residue from bound snapping under per-pivot
				// refactorization: clamp and continue.
				s.xB[i] = math.Min(math.Max(s.xB[i], s.lo[bj]), s.hi[bj])
				continue
			}
			return errNumerical
		}
	}
	return nil
}

// refactorizeBasis refactors the basis (discarding its updates) and
// recomputes the basic values. Unlike refactorize it does NOT require
// primal feasibility — the dual simplex refactorizes through
// deliberately infeasible iterates.
func (s *simplex) refactorizeBasis() error {
	if err := s.ws.fac.refactor(s.cols, s.basis); err != nil {
		return err
	}
	s.computeXB()
	s.pivots = 0
	s.ws.pivotAge = 0
	s.refactors++
	return nil
}

// computeXB recomputes the basic values xB = B⁻¹ · (b - A_N x_N) from
// the current factors and nonbasic statuses. Dual re-solves use it
// directly when the parent's factors are still resident: a child's
// bound change moves nonbasic values, not the factorization.
func (s *simplex) computeXB() {
	m := s.sf.m
	resid := s.ws.resid[:m]
	copy(resid, s.sf.b)
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		x := s.nbValue(j)
		if x == 0 {
			continue
		}
		col := &s.cols[j]
		for k, r := range col.ind {
			resid[r] -= col.val[k] * x
		}
	}
	s.ws.fac.ftran(resid, s.xB, false)
}

// debugChecks selects expensive internal checks; none run outside the
// tests that set them.
var debugChecks debugSet

// debugSet is a set of internal checks, each panicking on violation.
type debugSet uint8

const (
	// debugInvariants checks basic values against their bounds and
	// against a fresh recomputation, and every entering column's ftran
	// against the basis it claims to invert.
	debugInvariants debugSet = 1 << iota
	// debugDives re-solves every warm-restarted dive step cold as well,
	// and the two must agree (diveSolve).
	debugDives
	// debugProp re-solves every node bound propagation closed cold, on a
	// fresh workspace, and its LP must be infeasible (checkPropPrune).
	debugProp
)
