// Package ilp provides a pure-Go linear and (mixed-)integer linear
// program solver. It replaces the Gurobi Optimizer used by the P4All
// paper's prototype: the P4All compiler builds a Model mirroring the
// paper's Figure 10 formulation and asks Solve for an optimal integer
// assignment.
//
// The LP relaxations are solved with a bounded-variable revised primal
// simplex (sparse LU factors of the basis updated by Forrest–Tomlin row
// transformations, two-phase start with on-demand artificials, Dantzig
// pricing with a Bland anti-cycling fallback, and periodic
// refactorization); branch-and-bound children re-solve by dual simplex
// from the parent's basis. Integrality is enforced by best-first
// branch and bound with most-fractional branching and a diving
// heuristic for early incumbents.
package ilp

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// VarType describes the domain of a decision variable.
type VarType int

const (
	// Continuous variables range over the reals within their bounds.
	Continuous VarType = iota
	// Integer variables must take integral values within their bounds.
	Integer
	// Binary variables are integer variables with bounds [0, 1].
	Binary
)

func (t VarType) String() string {
	switch t {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("VarType(%d)", int(t))
	}
}

// Sense selects the optimization direction of the objective.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Op is a constraint comparison operator.
type Op int

const (
	// LE constrains an expression to be at most the right-hand side.
	LE Op = iota
	// GE constrains an expression to be at least the right-hand side.
	GE
	// EQ constrains an expression to equal the right-hand side.
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Inf is the bound value representing "unbounded".
var Inf = math.Inf(1)

// Var identifies a decision variable within its Model.
type Var int

// varData stores a variable's definition.
type varData struct {
	name string
	lo   float64
	hi   float64
	typ  VarType
	pri  int // branching priority (higher branches first)
}

// constrData stores one linear constraint: Σ coef[k]·vars[k] op rhs,
// its terms in ascending variable order. Rows never change once added.
type constrData struct {
	name string
	vars []int32
	coef []float64
	op   Op
	rhs  float64
}

// Model is a mutable linear/integer program under construction.
// A Model is not safe for concurrent mutation.
type Model struct {
	name    string
	vars    []varData
	constrs []constrData
	obj     Expr
	sense   Sense
	// namePrefix, when nonempty, is prepended (with "/") to the name of
	// every variable and constraint added — the namespacing mechanism
	// for joint multi-tenant models built by several generators.
	namePrefix string
}

// NewModel returns an empty model with the given diagnostic name.
func NewModel(name string) *Model {
	return &Model{name: name, sense: Minimize}
}

// Name returns the model's diagnostic name.
func (m *Model) Name() string { return m.name }

// SetNamePrefix sets the namespace applied to subsequently added
// variables and constraints: every name becomes "prefix/name". An
// empty prefix restores plain names. Joint multi-tenant generation
// sets one prefix per tenant so K generators can share a model without
// name collisions, and the prefix doubles as the tenant tag the
// isolation audit classifies by.
func (m *Model) SetNamePrefix(prefix string) { m.namePrefix = prefix }

// scopedName applies the current name prefix.
func (m *Model) scopedName(name string) string {
	if m.namePrefix == "" {
		return name
	}
	return m.namePrefix + "/" + name
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstrs returns the number of constraints added so far.
func (m *Model) NumConstrs() int { return len(m.constrs) }

// AddVar adds a decision variable with bounds [lo, hi]. Binary
// variables have their bounds clamped to [0, 1]. Lo must be finite and
// must not exceed hi.
func (m *Model) AddVar(name string, lo, hi float64, typ VarType) Var {
	name = m.scopedName(name)
	if typ == Binary {
		lo = math.Max(lo, 0)
		hi = math.Min(hi, 1)
	}
	if math.IsInf(lo, -1) || math.IsNaN(lo) {
		panic(fmt.Sprintf("ilp: variable %q requires a finite lower bound, got %v", name, lo))
	}
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q has empty domain [%g, %g]", name, lo, hi))
	}
	m.vars = append(m.vars, varData{name: name, lo: lo, hi: hi, typ: typ})
	return Var(len(m.vars) - 1)
}

// AddBinary adds a binary variable.
func (m *Model) AddBinary(name string) Var { return m.AddVar(name, 0, 1, Binary) }

// AddInt adds an integer variable with bounds [lo, hi].
func (m *Model) AddInt(name string, lo, hi float64) Var { return m.AddVar(name, lo, hi, Integer) }

// VarName returns the name given to v when it was added.
func (m *Model) VarName(v Var) string { return m.vars[v].name }

// VarBounds returns the bounds of v.
func (m *Model) VarBounds(v Var) (lo, hi float64) { return m.vars[v].lo, m.vars[v].hi }

// SetBranchPriority marks v as preferred for branching: among
// fractional integer variables, those with the highest priority are
// branched on first. Default priority is 0.
func (m *Model) SetBranchPriority(v Var, pri int) {
	m.vars[v].pri = pri
}

// SetBounds replaces the bounds of v.
func (m *Model) SetBounds(v Var, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q given empty domain [%g, %g]", m.vars[v].name, lo, hi))
	}
	m.vars[v].lo, m.vars[v].hi = lo, hi
}

// AddConstr adds the linear constraint "expr op rhs". The expression's
// constant term is folded into the right-hand side.
func (m *Model) AddConstr(name string, expr Expr, op Op, rhs float64) {
	name = m.scopedName(name)
	for v := range expr.coef {
		if int(v) < 0 || int(v) >= len(m.vars) {
			panic(fmt.Sprintf("ilp: constraint %q references unknown variable %d", name, v))
		}
	}
	c := constrData{name: name, op: op, rhs: rhs - expr.konst}
	c.vars = make([]int32, 0, len(expr.coef))
	c.coef = make([]float64, 0, len(expr.coef))
	expr.Terms(func(v Var, coef float64) {
		c.vars = append(c.vars, int32(v))
		c.coef = append(c.coef, coef)
	})
	m.constrs = append(m.constrs, c)
}

// EachConstr calls f once per constraint, in the order they were
// added, with its terms in ascending variable order. The slices passed
// to f are the model's own, not copies: callers must treat them as
// read-only. Used by audits that classify constraints structurally
// (e.g. the multi-tenant isolation check).
func (m *Model) EachConstr(f func(name string, vars []int32, coef []float64, op Op, rhs float64)) {
	for _, c := range m.constrs {
		f(c.name, c.vars, c.coef, c.op, c.rhs)
	}
}

// expr returns the constraint's left-hand side as an expression.
func (c *constrData) expr() Expr {
	e := NewExpr()
	for k, v := range c.vars {
		e.coef[Var(v)] = c.coef[k]
	}
	return e
}

// Clone returns a copy of the model that shares its constraint rows:
// variables, constraints, bounds or an objective given to either
// afterwards leave the other as it was. Rows are never changed once
// added, so the copy costs one slice of variables, not the rows.
func (m *Model) Clone() *Model {
	c := *m
	c.vars = slices.Clone(m.vars)
	c.constrs = m.constrs[:len(m.constrs):len(m.constrs)]
	return &c
}

// SetObjective sets the objective expression and direction. The
// expression's constant term is preserved and added to reported
// objective values.
func (m *Model) SetObjective(expr Expr, sense Sense) {
	m.obj = expr.clone()
	m.sense = sense
}

// Objective returns the current objective expression and sense.
func (m *Model) Objective() (Expr, Sense) { return m.obj.clone(), m.sense }

// String renders the model in an LP-like text format, useful in tests
// and debugging. Large models render only a summary header.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s: %d vars, %d constrs, %s\n", m.name, len(m.vars), len(m.constrs), m.sense)
	if len(m.vars) > 64 || len(m.constrs) > 64 {
		return b.String()
	}
	fmt.Fprintf(&b, "  obj: %s\n", m.obj.format(m))
	for _, c := range m.constrs {
		fmt.Fprintf(&b, "  %s: %s %s %g\n", c.name, c.expr().format(m), c.op, c.rhs)
	}
	for i, v := range m.vars {
		fmt.Fprintf(&b, "  var %s in [%g, %g] %s (x%d)\n", v.name, v.lo, v.hi, v.typ, i)
	}
	return b.String()
}

// Status reports the outcome of a Solve call.
type Status int

const (
	// StatusOptimal means an optimal (integer-feasible for MIPs)
	// solution was found and proven optimal within tolerances.
	StatusOptimal Status = iota
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the
	// optimization direction.
	StatusUnbounded
	// StatusLimit means a node, iteration, or time limit stopped the
	// search; Solution.Values holds the incumbent if one was found.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the model's own sense
	Values    []float64 // one entry per variable, indexed by Var
	// Nodes is the number of branch-and-bound nodes processed
	// (1 for pure LPs).
	Nodes int
	// SimplexIters is the total simplex iteration count across all
	// LP solves.
	SimplexIters int
	// Refactorizations is the total number of basis refactorizations
	// across all LP solves.
	Refactorizations int
	// DualIters is the subset of SimplexIters performed by dual-simplex
	// child re-solves from inherited bases (dual.go).
	DualIters int
	// PrimalFallbacks counts child LPs whose dual re-solve was
	// abandoned (singular basis, dual infeasibility, stall) and
	// re-solved by the two-phase primal path. A rising fallback rate is
	// the solver-regression signal obs traces watch for.
	PrimalFallbacks int
	// WarmRestarts counts the dive's LPs re-solved by warm primal simplex
	// from the previous step's optimal basis, and WarmFallbacks those
	// restarts abandoned to the cold two-phase path (a basis that would
	// not factor, an attempt past the model's cold root-LP iteration
	// count). Neither is part of PrimalFallbacks, which counts the tree's
	// dual re-solves only.
	WarmRestarts  int
	WarmFallbacks int
	// RootIters, DiveIters and TreeIters split SimplexIters by caller:
	// the root LP, the diving heuristic, and the tree's node re-solves.
	// A solve that installed a MIP start runs no dive: its DiveIters and
	// WarmRestarts are 0.
	RootIters, DiveIters, TreeIters int
	// RootStart says how the root LP started: RootCold, RootPooled (the
	// installed start's basis was optimal for it, so it ended after one
	// pricing pass), or "rejected (<reason>)" when that basis was not
	// optimal and the root was solved cold — reason is "shape",
	// "singular", "not primal feasible" or "not dual feasible".
	RootStart string
	// RootBasis is the root LP's optimal basis, for a later solve's
	// Start.Basis (nil when the root LP was not solved to optimality).
	RootBasis *Basis
	// Presolve reports the root presolve's reductions (zero when
	// Options.disablePresolve was set).
	Presolve PresolveStats
	// RootBound is the root LP relaxation objective in the model's
	// sense (a bound on the best possible integer objective).
	RootBound float64
	// BestBound is the tightest proven bound on the optimum at
	// termination (equals Objective when optimality was proven).
	BestBound float64
	// WarmStarted reports that one of Options.Start projected to a
	// feasible point and was installed as the root incumbent;
	// StartIndex, meaningful only when it is true, says which.
	WarmStarted bool
	StartIndex  int
	// Threads is the number of branch-and-bound workers the solve ran
	// with (after resolving Options.Threads and Options.Deterministic).
	Threads int
	// Workers holds per-worker effort tallies, one entry per thread.
	// Worker 0 additionally accounts the root relaxation and the
	// diving heuristic.
	Workers []WorkerCounts
}

// AchievedGap returns the certified optimality gap of the returned
// solution: |Objective - BestBound| / |Objective|, with a converged
// pair reporting 0 and a zero objective with a nonzero bound reporting
// +Inf (the same semantics the search itself stops on — see relGap).
func (s *Solution) AchievedGap() float64 {
	if s.Values == nil {
		return math.Inf(1)
	}
	return relGap(s.Objective, s.BestBound)
}

// Value returns the solution value of v, rounded to the nearest
// integer for integer-typed variables.
func (s *Solution) Value(v Var) float64 {
	if s.Values == nil {
		return math.NaN()
	}
	return s.Values[v]
}
