// Package multitenant compiles K independent P4All programs — tenants
// — into one jointly-optimized PISA pipeline. Each tenant keeps its
// own source, its own utility, and its own namespace in the shared ILP
// (internal/ilpgen.GenerateJoint); the tenants meet only in the
// per-stage resource budget rows and a fairness objective over their
// utilities. The result is the elastic answer to switch multi-tenancy:
// instead of statically partitioning the pipeline, the compiler trades
// memory, ALUs, and PHV bits between tenants by weight, re-solving the
// joint model as weights drift (Compiler retains each mix's model and
// last two solutions for millisecond reallocation).
//
// Isolation is checked, not assumed: check.ModelIsolation audits the
// rows and variables of each floored model once, when the first compile
// of those floors builds it, and every compile from that model is
// refused before its solve when any structural constraint couples two
// tenants. A re-solve sets only the objective (and, under MaxMin, adds
// joint-scoped rows the audit always admits), so it keeps the verdict.
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
	"p4all/internal/lang"
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
	// Utility, when nonempty, is an optimize expression over the
	// tenant's symbolic values that replaces its program's own utility
	// (the optimize declaration in Source) for this compile. Like
	// MinUtility it is set on a copy of the retained mix's model, so a
	// program re-solved under a new utility runs no front end and
	// generates no model.
	Utility string
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
	Name string
	// Utility is the tenant's utility read off the joint solution;
	// Delivered is its utility at the layout's extracted symbolic
	// values (ilpgen.JointLayout).
	Utility, Delivered float64
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
	// Retained reports that the compile reused the front ends and joint
	// model its Compiler retained for the mix, so its Parse and Bounds
	// phases are zero and its Generate phase only set the objective.
	Retained bool
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
// skipped) emits all tenants against one target: a Compiler used once.
func Compile(tenants []Tenant, target pisa.Target, opts Options) (*Result, error) {
	return NewCompiler(target, opts).Compile(tenants)
}

// Compiler is a stateful joint compiler. For each tenant mix it keeps a
// retained mix: the tenants' core.Front results and the joint model as
// GenerateJoint built it, before any objective, with an ilpgen.History
// of the mix's last two solutions and their root LP bases. A re-solve
// of a mix compiled before runs no front end and generates no model: it
// sets its weights and fairness mode on a clone of the mix's floored
// model (the retained model with the floors and utilities of the last
// compile, which keeps the solver's lowering and its isolation verdict)
// and solves it, seeded from the history. One program is a one-tenant
// mix, whose model is the program's own (ilpgen.GenerateJoint). The solver installs whichever
// pooled solution scores better under the new weights, and its root LP
// ends at that solution's basis when the basis is still optimal
// (ilp.Start). A re-solve after a weight or floor nudge then typically
// finishes at the root without a pivot, and so does a flip back to the
// weights before it. A flip into a regime neither pooled solution fits
// searches a tree. Safe for concurrent use.
type Compiler struct {
	Target pisa.Target
	Opts   Options

	mu    sync.Mutex
	mixes map[string]*mix
}

// mix is what a Compiler retains of one tenant mix. The front ends and
// the joint model are read-only once retained; the history and the
// floored model are guarded by the Compiler's mutex.
type mix struct {
	fronts  []*core.Result
	joint   *ilpgen.Joint // no floors, no objective
	history ilpgen.History
	// floored is joint with the floors and utilities of the latest
	// compile, which floorKey names.
	floored  *flooredModel
	floorKey string
}

// flooredModel is a clone of a mix's joint model with floors and
// utilities set. Each compile solves a clone of it that sets only the
// objective, so the solver lowers its rows once (ilp.Solve) and the
// isolation audit reads them once, until the floors or utilities
// change; the lowering and the verdict are dropped with it.
type flooredModel struct {
	joint *ilpgen.Joint

	audit      sync.Once
	violations []check.IsolationViolation
}

// isolation returns check.ModelIsolation's verdict on the floored model;
// audited reports that this call ran the audit.
func (f *flooredModel) isolation() (vs []check.IsolationViolation, audited bool) {
	f.audit.Do(func() {
		f.violations = check.ModelIsolation(f.joint.Model, f.joint.Names)
		audited = true
	})
	return f.violations, audited
}

// NewCompiler returns a Compiler for the target.
func NewCompiler(target pisa.Target, opts Options) *Compiler {
	return &Compiler{Target: target, Opts: opts, mixes: make(map[string]*mix)}
}

// mixKey identifies a tenant mix up to model identity: the model's
// variables and rows are determined by the ordered tenant names and
// sources and by every field of the target, and the MaxMin flag adds a
// variable that pooled starts must align with. Weights, floors and
// utilities do not enter: floors and utilities add rows to the mix's
// floored model, and weights set the objective on each re-solve's clone
// of it.
func mixKey(tenants []Tenant, target pisa.Target, maxMin bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "target=%#v\nmaxmin=%v\n", target, maxMin)
	for _, t := range tenants {
		fmt.Fprintf(h, "tenant=%s\nlen=%d\n%s\n", t.Name, len(t.Source), t.Source)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Compile jointly compiles the mix. The first compile of a mix runs each
// tenant's core.Front and GenerateJoint and retains them; later ones
// reuse them (Result.Retained). Each tenant runs core's per-program
// stages — core.Front before the joint model is built, core.Back after
// it is solved — and the joint model goes through core.Solve; what is
// joint-only is the model itself and its isolation audit. The solution
// and its root LP basis become the mix's incumbent start.
func (c *Compiler) Compile(tenants []Tenant) (*Result, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("multitenant: no tenants")
	}
	weights := make([]float64, len(tenants))
	floors := make([]float64, len(tenants))
	utilities := make([]lang.Expr, len(tenants))
	sources := make([]string, len(tenants))
	for i, t := range tenants {
		w, err := t.weight()
		if err != nil {
			return nil, err
		}
		weights[i], floors[i], sources[i] = w, t.MinUtility, t.Utility
		if t.Utility != "" {
			if utilities[i], err = lang.ParseExpr(t.Utility); err != nil {
				return nil, fmt.Errorf("multitenant: tenant %s utility: %w", t.Name, err)
			}
		}
	}
	target, opts := c.Target, c.Opts
	key := mixKey(tenants, target, opts.MaxMin)
	c.mu.Lock()
	mx := c.mixes[key]
	c.mu.Unlock()

	res := &Result{Target: target, Retained: mx != nil}
	root := opts.Tracer.StartSpan("multitenant.compile",
		obs.String("target", target.Name),
		obs.Int("tenants", len(tenants)),
		obs.Bool("retained", res.Retained))
	defer root.End()
	co := core.Options{Solver: opts.Solver, SkipCodegen: opts.SkipCodegen, Certify: opts.Certify, Tracer: opts.Tracer}

	var fronts []*core.Result
	if mx == nil {
		fronts = make([]*core.Result, len(tenants))
		for i, t := range tenants {
			front, err := core.Front(t.Source, target, root)
			if err != nil {
				return nil, fmt.Errorf("multitenant: tenant %s: %w", t.Name, err)
			}
			fronts[i] = front
			res.Phases.Parse += front.Phases.Parse
			res.Phases.Bounds += front.Phases.Bounds
		}
	}

	begin := time.Now()
	sp := root.Child("generate")
	if mx == nil {
		var err error
		if mx, err = c.retain(key, target, tenants, fronts); err != nil {
			sp.End()
			return nil, err
		}
	}
	floored, err := c.floored(mx, ilpgen.Fairness{MinUtility: floors, Utilities: utilities}, fmt.Sprintf("%v %q", floors, sources))
	if err != nil {
		sp.End()
		return nil, err
	}
	joint := floored.joint.Clone()
	if err := joint.SetObjective(ilpgen.Fairness{Weights: weights, MaxMin: opts.MaxMin}); err != nil {
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
	for i, t := range tenants {
		tr := *mx.fronts[i]
		if res.Retained {
			tr.Phases = core.Phases{}
		}
		res.Tenants = append(res.Tenants, &TenantResult{Name: t.Name, Result: &tr})
	}

	// The isolation verdict is checked before the solve, on the rows the
	// solve gets: a mis-partitioned model taints every layout it could
	// produce, so there is no point paying for the search first.
	begin = time.Now()
	sp = root.Child("isolate")
	vs, audited := floored.isolation()
	sp.SetAttrs(obs.Bool("audited", audited))
	sp.End()
	if len(vs) > 0 {
		return nil, fmt.Errorf("multitenant: model violates tenant isolation: %s (and %d more)", vs[0], len(vs)-1)
	}
	res.Phases.Isolate = time.Since(begin)

	c.mu.Lock()
	co.Solver.Start = mx.history.Starts()
	c.mu.Unlock()
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
		tr.ILP, tr.Layout = joint.Tenants[i], res.Layout.Tenants[i]
		tr.Utility, tr.Delivered = res.Layout.Utilities[i], res.Layout.Delivered[i]
		co.Name = tr.Name
		if err := core.Back(tr.Result, co, root); err != nil {
			return nil, fmt.Errorf("multitenant: tenant %s: %w", tr.Name, err)
		}
		res.Phases.Codegen += tr.Phases.Codegen
		res.Phases.Certify += tr.Phases.Certify
	}
	c.mu.Lock()
	mx.history.Push(ilp.Start{Values: res.Layout.Values, Basis: res.Layout.RootBasis})
	c.mu.Unlock()
	return res, nil
}

// floored returns the mix's joint model with f's floors and utilities,
// which key names: the one retained when the last compile had the same,
// else a new clone of the mix's model, which it retains in its place.
func (c *Compiler) floored(mx *mix, f ilpgen.Fairness, key string) (*flooredModel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mx.floored != nil && mx.floorKey == key {
		return mx.floored, nil
	}
	j := mx.joint.Clone()
	if err := j.SetFloors(f); err != nil {
		return nil, err
	}
	mx.floored, mx.floorKey = &flooredModel{joint: j}, key
	return mx.floored, nil
}

// retain generates the mix's joint model from the tenants' front results
// and records it under key. When a concurrent compile retained the mix
// first, its entry wins and the model built here is dropped: both are
// the same model, and one history serves the mix.
func (c *Compiler) retain(key string, target pisa.Target, tenants []Tenant, fronts []*core.Result) (*mix, error) {
	tus := make([]ilpgen.TenantUnit, len(tenants))
	for i, t := range tenants {
		tus[i] = ilpgen.TenantUnit{Name: t.Name, Unit: fronts[i].Unit, Bounds: fronts[i].Bounds}
	}
	joint, err := ilpgen.GenerateJoint(tus, &target)
	if err != nil {
		return nil, err
	}
	mx := &mix{fronts: fronts, joint: joint}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.mixes[key]; first != nil {
		return first, nil
	}
	c.mixes[key] = mx
	return mx, nil
}
