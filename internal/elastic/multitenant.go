package elastic

import (
	"fmt"
	"math"

	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// planeShapes are the layout symbolics a tenant must solve for to get a
// behavioral Plane (the NetCache data-plane shapes NewPlane reads).
var planeShapes = [...]string{"cms_rows", "cms_cols", "kv_parts", "kv_slots"}

// planeShaped reports whether the layout carries every NetCache shape.
func planeShaped(l *ilpgen.Layout) bool {
	for _, s := range planeShapes {
		if _, ok := l.Symbolics[s]; !ok {
			return false
		}
	}
	return true
}

// MTConfig parameterizes an MTController.
type MTConfig struct {
	// Target is the switch all tenants share.
	Target pisa.Target
	// Tenants is the mix. Names and sources are fixed for the
	// controller's lifetime; weights are the initial fairness weights
	// and move under Reweight/Observe.
	Tenants []multitenant.Tenant
	// MaxMin selects max-min fairness for every joint solve.
	MaxMin bool
	// Solver tunes the joint re-solves. As with the single-tenant
	// Controller, the solver always runs in deterministic mode so the
	// adopt/keep decision chain replays identically.
	Solver ilp.Options
	// MinImprove is the relative joint-objective gain — the re-solved
	// layout against the incumbent assignment, both under the NEW
	// weights — required to adopt (default 0.02).
	MinImprove float64
	// Detector tunes the per-tenant drift detectors behind Observe.
	Detector DetectorConfig
	// Policy maps one tenant's drift verdict to a full new weight
	// vector (parallel to Tenants; entries are effective weights, so 0
	// means unweighted). Nil selects DefaultMTPolicy.
	Policy func(tenant int, d Drift, weights []float64) []float64
	// Tracer records drift/reoptimize/adopt/fallback events.
	Tracer *obs.Tracer
}

func (c MTConfig) withDefaults() MTConfig {
	if c.MinImprove == 0 {
		c.MinImprove = 0.02
	}
	if c.Policy == nil {
		c.Policy = DefaultMTPolicy
	}
	return c
}

// DefaultMTPolicy answers drift on one tenant by shifting objective
// weight toward it: the drifting tenant's weight becomes
// 1 + Drift.Share (a concentrated workload earns up to double stake),
// everyone else keeps theirs. It is the multi-tenant analogue of
// DefaultPolicy's share→weights map, reduced to the only signal that is
// tenant-agnostic.
func DefaultMTPolicy(tenant int, d Drift, weights []float64) []float64 {
	out := append([]float64(nil), weights...)
	out[tenant] = 1 + d.Share
	return out
}

// MTDecision reports one Reweight or Observe outcome across the mix.
type MTDecision struct {
	Action Action
	Reason string
	// Drift is the verdict that triggered the reweight (zero for a
	// direct Reweight call).
	Drift Drift
	// Weights is the weight vector the re-solve ran under (nil when
	// none ran).
	Weights []float64
	// Utilities is each tenant's achieved utility in the re-solved
	// layout, by name (nil when no solve produced a layout).
	Utilities map[string]float64
	// Stats is the joint re-solve's solver effort.
	Stats *ilpgen.Stats
	// Diffs compares each plane-carrying tenant's re-solved layout
	// against its incumbent, by name.
	Diffs map[string]Diff
	// DroppedKV sums cache entries lost to collisions across all
	// tenants' migrations during an adoption.
	DroppedKV int
	// Epoch is the shared gate epoch after the decision.
	Epoch uint64
}

// MTController runs the elastic reoptimization loop over a fixed
// multi-tenant mix: K programs jointly compiled into one pipeline
// (internal/multitenant), with per-tenant data planes published under
// one shared epoch. A reweight re-solves the joint model warm-started
// from the incumbent assignment, migrates every tenant's structure
// state to its new shapes, and swaps the whole plane set atomically —
// shrinking one tenant and growing another is a single transition, so a
// reader never observes tenant A already shrunk while tenant B is not
// yet grown.
//
// Tenants whose layouts solve the NetCache shapes (cms_rows/cms_cols
// and kv_parts/kv_slots) each get a Plane; the gate has one shard per
// such tenant, in mix order. Shapeless tenants still participate in the
// joint solve, they just have no behavioral state to migrate.
//
// Reweight and Observe must be called from a single controller
// goroutine. Migration reads the published planes, so plane readers
// that mutate state (packet processing) must be quiesced around a
// reweight — the same contract as MigrateShards; read-only observers
// may keep loading through the swap.
type MTController struct {
	cfg     MTConfig
	comp    *multitenant.Compiler
	gate    *MultiGate
	weights []float64
	// planeIdx maps a plane-carrying tenant's mix index to its shard in
	// the gate.
	planeIdx map[int]int
	det      map[int]*Detector
	res      *multitenant.Result
}

// NewMT jointly compiles the initial mix and starts the controller
// serving one plane per NetCache-shaped tenant.
func NewMT(cfg MTConfig) (*MTController, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("elastic: MTConfig.Tenants is empty")
	}
	opts := multitenant.Options{
		Solver:      cfg.Solver,
		MaxMin:      cfg.MaxMin,
		SkipCodegen: true,
		Tracer:      cfg.Tracer,
	}
	// Decisions must replay identically (see Controller.compile).
	opts.Solver.Deterministic = true
	c := &MTController{
		cfg:      cfg,
		comp:     multitenant.NewCompiler(cfg.Target, opts),
		planeIdx: make(map[int]int),
		det:      make(map[int]*Detector),
	}
	weights := make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		switch {
		case t.Weight == 0:
			weights[i] = 1
		case t.Weight == multitenant.Unweighted:
			weights[i] = 0
		default:
			weights[i] = t.Weight
		}
	}
	res, err := c.compile(weights)
	if err != nil {
		return nil, fmt.Errorf("elastic: initial joint compile: %w", err)
	}
	c.res = res
	c.weights = weights
	var planes []*Plane
	for i, tr := range res.Tenants {
		if !planeShaped(tr.Layout) {
			continue
		}
		p, err := NewPlane(tr.Layout)
		if err != nil {
			return nil, fmt.Errorf("elastic: tenant %s: %w", tr.Name, err)
		}
		c.planeIdx[i] = len(planes)
		planes = append(planes, p)
	}
	if len(planes) == 0 {
		return nil, fmt.Errorf("elastic: no tenant in the mix solves the NetCache plane shapes (%v)", planeShapes)
	}
	c.gate, err = NewMultiGate(planes)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// compile runs one joint solve under the given weights, warm-started
// from the Compiler's pool (the mix is constant, so after the first
// solve every re-solve is warm).
func (c *MTController) compile(weights []float64) (*multitenant.Result, error) {
	if len(weights) != len(c.cfg.Tenants) {
		return nil, fmt.Errorf("elastic: %d weights for %d tenants", len(weights), len(c.cfg.Tenants))
	}
	mix := append([]multitenant.Tenant(nil), c.cfg.Tenants...)
	for i, w := range weights {
		switch {
		case w == 0:
			mix[i].Weight = multitenant.Unweighted
		case w < 0 || math.IsNaN(w) || math.IsInf(w, 0):
			return nil, fmt.Errorf("elastic: tenant %s weight %v is not a finite nonnegative number", mix[i].Name, w)
		default:
			mix[i].Weight = w
		}
	}
	return c.comp.Compile(mix)
}

// Gate returns the shared swap point. Shard order follows the mix
// order of the plane-carrying tenants; see Shard.
func (c *MTController) Gate() *MultiGate { return c.gate }

// Shard returns the gate shard serving the named tenant's plane, or -1
// when the tenant has no plane (unknown name, or no NetCache shapes).
func (c *MTController) Shard(name string) int {
	for i, t := range c.cfg.Tenants {
		if t.Name == name {
			if s, ok := c.planeIdx[i]; ok {
				return s
			}
			return -1
		}
	}
	return -1
}

// Plane returns the named tenant's currently served plane, or nil.
func (c *MTController) Plane(name string) *Plane {
	s := c.Shard(name)
	if s < 0 {
		return nil
	}
	p, _ := c.gate.Load(s)
	return p
}

// Weights returns the weight vector the incumbent was solved under.
func (c *MTController) Weights() []float64 {
	return append([]float64(nil), c.weights...)
}

// Result returns the incumbent joint compilation.
func (c *MTController) Result() *multitenant.Result { return c.res }

// Observe folds one tenant's traffic window into that tenant's drift
// detector. On drift it asks the policy for a new weight vector and
// runs Reweight with the window's hot keys credited to the observed
// tenant; without drift it reports ActionNone.
func (c *MTController) Observe(tenant string, w WindowStats) (*MTDecision, error) {
	idx := -1
	for i, t := range c.cfg.Tenants {
		if t.Name == tenant {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("elastic: unknown tenant %q", tenant)
	}
	det := c.det[idx]
	if det == nil {
		det = NewDetector(c.cfg.Detector)
		c.det[idx] = det
	}
	d := det.Observe(w)
	if !d.Triggered {
		return &MTDecision{Action: ActionNone, Drift: d, Epoch: c.gate.Epoch()}, nil
	}
	c.cfg.Tracer.Event("elastic.mt.drift",
		obs.String("tenant", tenant),
		obs.String("reason", d.Reason),
		obs.Float("share", d.Share),
	)
	dec, err := c.Reweight(c.cfg.Policy(idx, d, c.Weights()),
		map[string][]KeyCount{tenant: w.HotKeys})
	if dec != nil {
		dec.Drift = d
	}
	return dec, err
}

// Reweight re-solves the joint model under new fairness weights
// (parallel to the mix; effective weights, 0 meaning unweighted) and
// either adopts the resulting layouts — migrating every tenant's plane
// state and swapping the whole set under one epoch — or keeps the
// incumbent, reporting which and why. hot credits each tenant's hot
// keys for its own migration (keys are per-tenant traffic: one
// tenant's hot keys are never re-admitted into another's sketch); nil
// or missing entries migrate without re-admission.
func (c *MTController) Reweight(weights []float64, hot map[string][]KeyCount) (*MTDecision, error) {
	tr := c.cfg.Tracer
	dec := &MTDecision{Action: ActionKept, Weights: append([]float64(nil), weights...), Epoch: c.gate.Epoch()}
	res, err := c.compile(weights)
	if err != nil {
		dec.Reason = fmt.Sprintf("joint re-solve failed: %v", err)
		tr.Event("elastic.mt.fallback", obs.String("reason", dec.Reason))
		return dec, nil
	}
	stats := res.Layout.Stats
	dec.Stats = &stats
	dec.Utilities = make(map[string]float64, len(res.Tenants))
	for _, t := range res.Tenants {
		dec.Utilities[t.Name] = t.Utility
	}
	tr.Event("elastic.mt.reoptimize",
		obs.Bool("warm_started", stats.WarmStarted),
		obs.Int("bnb_nodes", stats.Nodes),
		obs.Bool("limit_hit", stats.LimitHit),
	)
	if stats.LimitHit {
		dec.Reason = "solver hit its limit before certifying the requested gap"
		tr.Event("elastic.mt.fallback", obs.String("reason", dec.Reason))
		return dec, nil
	}
	if improve, comparable := c.improvement(res); comparable && improve < c.cfg.MinImprove {
		dec.Reason = fmt.Sprintf("joint gain %.4f below threshold %.4f", improve, c.cfg.MinImprove)
		tr.Event("elastic.mt.fallback", obs.String("reason", dec.Reason))
		return dec, nil
	}
	old := c.gate.Planes()
	dec.Diffs = make(map[string]Diff, len(c.planeIdx))
	same := true
	for i, shard := range c.planeIdx {
		d := DiffLayouts(old[shard].Layout, res.Tenants[i].Layout)
		dec.Diffs[res.Tenants[i].Name] = d
		if !d.Same() {
			same = false
		}
	}
	if same {
		dec.Reason = "layouts unchanged"
		// The weights changed even though the layouts did not; adopt
		// the new solution as the incumbent so future comparisons run
		// against the right objective.
		c.res, c.weights = res, dec.Weights
		return dec, nil
	}
	planes := make([]*Plane, len(old))
	for i, shard := range c.planeIdx {
		name := res.Tenants[i].Name
		p, dropped, err := Migrate(old[shard], res.Tenants[i].Layout, hot[name])
		if err != nil {
			dec.Reason = fmt.Sprintf("tenant %s migration failed: %v", name, err)
			tr.Event("elastic.mt.fallback", obs.String("reason", dec.Reason))
			return dec, nil
		}
		planes[shard] = p
		dec.DroppedKV += dropped
	}
	epoch, err := c.gate.SwapAll(planes)
	if err != nil {
		return nil, err
	}
	dec.Action = ActionAdopted
	dec.Reason = ""
	dec.Epoch = epoch
	c.res, c.weights = res, dec.Weights
	tr.Event("elastic.mt.adopt",
		obs.Int("dropped_kv", dec.DroppedKV),
		obs.Int64("epoch", int64(epoch)),
	)
	return dec, nil
}

// improvement measures the re-solved joint layout against the
// incumbent assignment under the NEW objective, exactly as the
// single-tenant Controller does: the variable space is identical (same
// mix, same model shape), only the fairness weights moved.
func (c *MTController) improvement(res *multitenant.Result) (float64, bool) {
	values := c.res.Layout.Values
	if len(values) != res.Joint.Model.NumVars() {
		return 0, false
	}
	expr, sense := res.Joint.Model.Objective()
	incumbent := expr.Eval(values)
	gain := res.Layout.Objective - incumbent
	if sense == ilp.Minimize {
		gain = -gain
	}
	return gain / math.Max(1, math.Abs(incumbent)), true
}
