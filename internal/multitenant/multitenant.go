// Package multitenant compiles K independent P4All programs — tenants
// — into one jointly-optimized PISA pipeline. Each tenant keeps its
// own source, its own utility, and its own namespace in the shared ILP
// (internal/ilpgen.GenerateJoint); the tenants meet only in the
// per-stage resource budget rows and a fairness objective over their
// utilities. The result is the elastic answer to switch multi-tenancy:
// instead of statically partitioning the pipeline, the compiler trades
// memory, ALUs, and PHV bits between tenants by weight, re-solving the
// joint model as weights drift (Compiler pools the last two solutions
// per mix for sub-second reallocation).
//
// Isolation is checked, not assumed: every compile runs
// check.ModelIsolation over the generated model and refuses to emit
// layouts from a model where any structural constraint couples two
// tenants.
package multitenant

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"time"

	"p4all/internal/check"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// Unweighted is the Tenant.Weight sentinel for a true zero-weight
// tenant: it is compiled and placed (its assumes and MinUtility still
// hold) but contributes nothing to the objective — capacity is never
// traded toward it. The zero value of Weight means the default
// weight 1, so an explicit sentinel is needed to say "zero".
const Unweighted = -1

// Tenant is one program in a joint compile.
type Tenant struct {
	// Name namespaces the tenant in the joint model and in reports. It
	// must be nonempty, unique, must not contain '/', and must not be
	// the reserved scope "joint".
	Name string
	// Source is the tenant's complete P4All program.
	Source string
	// Weight is the tenant's share in the fairness objective. The zero
	// value means the default weight 1; Unweighted (-1) means weight 0.
	// Any other negative value is an error.
	Weight float64
	// MinUtility, when positive, adds a floor row: the tenant's
	// utility must reach at least this value in any accepted layout.
	MinUtility float64
}

// weight resolves the sentinel convention to the solver's weight.
func (t Tenant) weight() (float64, error) {
	switch {
	case t.Weight == 0:
		return 1, nil
	case t.Weight == Unweighted:
		return 0, nil
	case t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0):
		return 0, fmt.Errorf("multitenant: tenant %s weight %v is not positive (use multitenant.Unweighted for zero)", t.Name, t.Weight)
	default:
		return t.Weight, nil
	}
}

// Options configures a joint compilation.
type Options struct {
	// Solver tunes the branch-and-bound search; zero-valued fields get
	// the same defaults as a single-tenant compile (3% gap, 4000
	// nodes, 90 seconds).
	Solver ilp.Options
	// MaxMin switches the objective from the weighted sum to max-min
	// fairness over the weighted utilities (see ilpgen.Fairness).
	MaxMin bool
	// SkipCodegen stops after solving and isolation checking.
	SkipCodegen bool
	// Certify runs the translation validator per tenant and attaches
	// each equivalence certificate. Implies code generation.
	Certify bool
	// Tracer receives per-phase spans. Nil disables tracing.
	Tracer *obs.Tracer
}

// TenantResult is one tenant's slice of a completed joint compile: the
// tenant's own core.Result — unit, bounds, its ILP slice and layout of
// the joint model, its generated program (unless codegen was skipped)
// and certificate (Options.Certify), and the times of its front and
// back halves. Each tenant is emitted independently: its P4 mentions
// only its own registers, actions, and headers.
type TenantResult struct {
	Name    string
	Utility float64
	*core.Result
}

// Result is a completed joint compilation. Phases sums the tenants'
// front and back halves and adds the joint model's generate, isolate
// and solve phases.
type Result struct {
	Target  pisa.Target
	Joint   *ilpgen.Joint
	Layout  *ilpgen.JointLayout
	Tenants []*TenantResult
	Phases  core.Phases
}

// Tenant returns the named tenant's result, or nil.
func (r *Result) Tenant(name string) *TenantResult {
	for _, t := range r.Tenants {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Compile parses, jointly optimizes, isolation-checks, and (unless
// skipped) emits all tenants against one target.
func Compile(tenants []Tenant, target pisa.Target, opts Options) (*Result, error) {
	return compile(tenants, target, opts, nil)
}

// compile is the shared implementation; starts seed the joint solve
// (the Compiler's warm pool path). Each tenant runs
// core's per-program stages — core.Front before the joint model is
// built, core.Back after it is solved — and the joint model goes
// through core.Solve; what is joint-only is the model itself and its
// isolation audit.
func compile(tenants []Tenant, target pisa.Target, opts Options, starts [][]float64) (*Result, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("multitenant: no tenants")
	}
	root := opts.Tracer.StartSpan("multitenant.compile",
		obs.String("target", target.Name),
		obs.Int("tenants", len(tenants)))
	defer root.End()
	co := core.Options{Solver: opts.Solver, SkipCodegen: opts.SkipCodegen, Certify: opts.Certify, Tracer: opts.Tracer}
	co.Solver.Start = starts

	res := &Result{Target: target}
	weights := make([]float64, len(tenants))
	floors := make([]float64, len(tenants))
	tus := make([]ilpgen.TenantUnit, len(tenants))
	for i, t := range tenants {
		w, err := t.weight()
		if err != nil {
			return nil, err
		}
		weights[i] = w
		floors[i] = t.MinUtility
		front, err := core.Front(t.Source, target, root)
		if err != nil {
			return nil, fmt.Errorf("multitenant: tenant %s: %w", t.Name, err)
		}
		res.Tenants = append(res.Tenants, &TenantResult{Name: t.Name, Result: front})
		res.Phases.Parse += front.Phases.Parse
		res.Phases.Bounds += front.Phases.Bounds
		tus[i] = ilpgen.TenantUnit{Name: t.Name, Unit: front.Unit, Bounds: front.Bounds}
	}

	begin := time.Now()
	sp := root.Child("generate")
	joint, err := ilpgen.GenerateJoint(tus, &res.Target)
	if err != nil {
		sp.End()
		return nil, err
	}
	if err := joint.SetObjective(ilpgen.Fairness{
		Weights:    weights,
		MinUtility: floors,
		MaxMin:     opts.MaxMin,
	}); err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttrs(
		obs.Int("ilp_vars", joint.Model.NumVars()),
		obs.Int("ilp_constrs", joint.Model.NumConstrs()),
	)
	sp.End()
	res.Joint = joint
	res.Phases.Generate = time.Since(begin)

	// The isolation audit runs before the solve: a mis-partitioned
	// model taints every layout it could produce, so there is no point
	// paying for the search first.
	begin = time.Now()
	sp = root.Child("isolate")
	if vs := check.ModelIsolation(joint.Model, joint.Names); len(vs) > 0 {
		sp.End()
		return nil, fmt.Errorf("multitenant: model violates tenant isolation: %s (and %d more)", vs[0], len(vs)-1)
	}
	sp.End()
	res.Phases.Isolate = time.Since(begin)

	res.Phases.Solve, err = core.Solve(co, root, func(solver ilp.Options) (ilpgen.Stats, float64, error) {
		jl, err := joint.Solve(solver)
		if err != nil {
			return ilpgen.Stats{}, 0, err
		}
		res.Layout = jl
		return jl.Stats, jl.Objective, nil
	})
	if err != nil {
		return nil, err
	}

	for i, tr := range res.Tenants {
		tr.ILP, tr.Layout, tr.Utility = joint.Tenants[i], res.Layout.Tenants[i], res.Layout.Utilities[i]
		co.Name = tr.Name
		if err := core.Back(tr.Result, co, root); err != nil {
			return nil, fmt.Errorf("multitenant: tenant %s: %w", tr.Name, err)
		}
		res.Phases.Codegen += tr.Phases.Codegen
		res.Phases.Certify += tr.Phases.Certify
	}
	return res, nil
}

// Compiler is a stateful joint compiler with a warm-start pool: for
// each tenant mix it remembers two joint solutions — the last one and
// the one before it (an ilpgen.History) — and seeds the next re-solve
// of the same mix with both; the solver installs whichever scores
// better under the new weights. A re-solve after a weight or floor
// nudge then typically finishes at the root node on the last solution,
// and so does a flip back to the weights before it, on the solution
// before last. A flip into a regime neither pooled solution fits
// searches a tree. No LP basis is pooled. Safe for concurrent use.
type Compiler struct {
	Target pisa.Target
	Opts   Options

	mu   sync.Mutex
	pool map[string]ilpgen.History
}

// NewCompiler returns a Compiler for the target.
func NewCompiler(target pisa.Target, opts Options) *Compiler {
	return &Compiler{Target: target, Opts: opts, pool: make(map[string]ilpgen.History)}
}

// mixKey identifies a tenant mix up to model identity: the model's
// variables (and so warm-start alignment) are determined by the
// ordered tenant names and sources, the target, and the MaxMin flag
// (which adds a variable). Weights and floors do not enter: they only
// perturb the objective and add rows, which a warm start survives.
func (c *Compiler) mixKey(tenants []Tenant) string {
	h := sha256.New()
	fmt.Fprintf(h, "target=%s/%d/%d\nmaxmin=%v\n", c.Target.Name, c.Target.Stages, c.Target.MemoryBits, c.Opts.MaxMin)
	for _, t := range tenants {
		fmt.Fprintf(h, "tenant=%s\nlen=%d\n%s\n", t.Name, len(t.Source), t.Source)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Compile jointly compiles the mix, seeding the solve from the pool
// when the same mix was compiled before and banking the new solution
// as the mix's incumbent.
func (c *Compiler) Compile(tenants []Tenant) (*Result, error) {
	key := c.mixKey(tenants)
	c.mu.Lock()
	starts := c.pool[key].Starts()
	c.mu.Unlock()
	res, err := compile(tenants, c.Target, c.Opts, starts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	h := c.pool[key]
	h.Push(res.Layout.Values)
	c.pool[key] = h
	c.mu.Unlock()
	return res, nil
}
