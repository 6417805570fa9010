package elastic

import (
	"fmt"
	"math"
	"strings"

	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/tv"
)

// Config parameterizes a Controller.
type Config struct {
	// Target is the switch the program is recompiled against.
	Target pisa.Target
	// Source is the P4All program — typically apps.NetCache's. Every
	// compile replaces its optimize declaration with DefaultPolicy's
	// utility.
	Source string
	// InitialShare seeds the policy for the first compile, before any
	// traffic has been observed (default 0.5: a skewed-workload
	// prior).
	InitialShare float64
	// Solver tunes the re-solves; re-solves additionally get
	// Options.Start seeded from the last two solutions and their root
	// bases (an ilpgen.History). Zero fields take the compiler
	// defaults.
	Solver ilp.Options
	// Tracer records drift/reoptimize/adopt/fallback events. Nil
	// disables tracing.
	Tracer *obs.Tracer
}

// Action says what the controller did with a window.
type Action int

const (
	// ActionNone: no drift; the incumbent keeps serving.
	ActionNone Action = iota
	// ActionKept: drift triggered a re-solve but the incumbent was
	// kept — solver limit, compile failure, an unproved certificate,
	// insufficient gain, an unchanged layout, or a failed swap.
	ActionKept
	// ActionAdopted: the re-solved layout was migrated and swapped in.
	ActionAdopted
)

func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionKept:
		return "kept"
	case ActionAdopted:
		return "adopted"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Decision reports one Observe outcome.
type Decision struct {
	Action  Action
	Reason  string
	Drift   Drift
	Utility string // utility the re-solve ran under (empty when none ran)
	// Stats is the re-solve's solver effort (nil when no solve ran or
	// the compile failed before solving).
	Stats *ilpgen.Stats
	// Certificate is the translation validator's verdict on the
	// re-solved layout's generated program (nil when no compile
	// finished). Only a proved layout is ever adopted.
	Certificate *tv.Certificate
	// Diff compares the re-solved layout against the incumbent (nil
	// when no layout was produced).
	Diff *Diff
	// DroppedKV counts cache entries lost to collisions during an
	// adoption's migration.
	DroppedKV int
	// Epoch is the epoch swap published an adopted layout at (0 when
	// nothing was adopted).
	Epoch uint64
}

// Controller is the runtime reoptimization loop. It decides which
// layout should serve and owns no data plane: Observe hands an adopted
// layout to the caller's swap function, which migrates and publishes
// it (serve.NetCache.SwapLayout). Observe is called by a single
// goroutine, once per traffic window.
type Controller struct {
	cfg Config
	det *Detector
	// layout is the incumbent: the last layout swap published.
	layout  *ilpgen.Layout
	utility string
	// compiler compiles the program as a one-tenant mix. It retains the
	// program's front end and model, sets each re-solve's utility on a
	// copy, and pools the last two solutions with their root bases.
	compiler *multitenant.Compiler
	// resolved, when set, sees every re-solve's result before the
	// controller judges it — the seam tests use to corrupt a layout.
	resolved func(*multitenant.Result)
}

// program names the controller's one tenant in its compiles.
const program = "program"

// minImprove is the relative utility gain — measured in the NEW
// utility, comparing the re-solved layout against the incumbent
// layout's assignment — required to adopt.
const minImprove = 0.02

func (c Config) withDefaults() Config {
	if c.InitialShare == 0 {
		c.InitialShare = 0.5
	}
	return c
}

// DefaultPolicy maps the observed top-K share onto the NetCache
// utility weights of the paper's §3.2.4. A concentrated head (high
// share, heavy skew) weighs the sketch up: few keys absorb most
// traffic, so popularity detection is the bottleneck and a small cache
// suffices. A flat workload weighs the key-value store up: the head is
// wide, so cache capacity is the bottleneck.
func DefaultPolicy(d Drift) string {
	wcms := 0.25 + 0.65*d.Share
	if wcms < 0.30 {
		wcms = 0.30
	}
	if wcms > 0.65 {
		wcms = 0.65
	}
	return fmt.Sprintf("%.2f * (cms_rows * cms_cols) + %.2f * (kv_parts * kv_slots)", wcms, 1-wcms)
}

// New compiles and certifies the initial program (cold, under the
// policy's InitialShare utility); Layout returns it for the caller to
// start serving.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Source == "" {
		return nil, fmt.Errorf("elastic: Config.Source is required")
	}
	c := &Controller{
		cfg:      cfg,
		det:      NewDetector(),
		utility:  DefaultPolicy(Drift{Share: cfg.InitialShare}),
		compiler: multitenant.NewCompiler(cfg.Target, multitenant.Options{Solver: cfg.Solver, Certify: true, Tracer: cfg.Tracer}),
	}
	mix, err := c.compiler.Compile([]multitenant.Tenant{{Name: program, Source: cfg.Source, Utility: c.utility}})
	if err != nil {
		return nil, fmt.Errorf("elastic: initial compile: %w", err)
	}
	res := mix.Tenants[0]
	if reason := uncertified(res.Certificate); reason != "" {
		return nil, fmt.Errorf("elastic: initial compile: %s", reason)
	}
	c.layout = res.Layout
	return c, nil
}

// Layout returns the incumbent layout: the initial compile until swap
// publishes an adopted one.
func (c *Controller) Layout() *ilpgen.Layout { return c.layout }

// uncertified explains why a certificate does not license its layout
// ("" when it is proved): the first undischarged obligation or failed
// audit check, of which an unproved certificate always has one.
func uncertified(cert *tv.Certificate) string {
	if cert.Proved() {
		return ""
	}
	return "uncertified: " + cert.Failures()[0]
}

// Observe folds one traffic window into the controller. On drift it
// re-solves the retained model under the policy's utility, warm-started
// from the last two solutions, certifies the result, and either adopts
// the new layout or keeps the incumbent, reporting which and why. To
// adopt, it calls swap with the layout and the window's hot keys; swap
// migrates the served state into the new shapes, publishes it, and
// returns the new epoch and the KV entries migration dropped. A swap
// error keeps the incumbent.
func (c *Controller) Observe(w WindowStats, swap func(l *ilpgen.Layout, hot []KeyCount) (epoch uint64, dropped int, err error)) *Decision {
	d := c.det.Observe(w)
	dec := &Decision{Action: ActionNone, Drift: d}
	if !d.Triggered {
		return dec
	}
	tr := c.cfg.Tracer
	tr.Event("elastic.drift",
		obs.String("reason", d.Reason),
		obs.Float("share", d.Share),
		obs.Float("baseline", d.Baseline),
	)
	dec.Utility = DefaultPolicy(d)
	mix, err := c.compiler.Compile([]multitenant.Tenant{{Name: program, Source: c.cfg.Source, Utility: dec.Utility}})
	if err != nil {
		dec.Action, dec.Reason = ActionKept, fmt.Sprintf("re-solve failed: %v", err)
		tr.Event("elastic.fallback", obs.String("reason", dec.Reason))
		return dec
	}
	if c.resolved != nil {
		c.resolved(mix)
	}
	res := mix.Tenants[0]
	dec.Certificate = res.Certificate
	stats := res.Layout.Stats
	dec.Stats = &stats
	root, _, _ := strings.Cut(stats.RootStart, " ")
	tr.Event("elastic.reoptimize",
		obs.String("utility", dec.Utility),
		obs.Bool("warm_started", stats.WarmStarted),
		obs.String("start", stats.Seed()),
		obs.String("root", root),
		obs.Int("bnb_nodes", stats.Nodes),
		obs.Float("gap", stats.Gap),
		obs.Bool("limit_hit", stats.LimitHit),
		obs.Duration("generate", mix.Phases.Generate),
		obs.Duration("isolate", mix.Phases.Isolate),
		obs.Duration("solve", mix.Phases.Solve),
		obs.Duration("codegen", mix.Phases.Codegen),
		obs.Duration("certify", mix.Phases.Certify),
	)
	if stats.LimitHit {
		dec.Action, dec.Reason = ActionKept, "solver hit its limit before certifying the requested gap"
		tr.Event("elastic.fallback", obs.String("reason", dec.Reason))
		return dec
	}
	if reason := uncertified(res.Certificate); reason != "" {
		dec.Action, dec.Reason = ActionKept, reason
		tr.Event("elastic.fallback", obs.String("reason", dec.Reason))
		return dec
	}
	diff := DiffLayouts(c.layout, res.Layout)
	dec.Diff = &diff
	if improve, comparable := c.improvement(mix); comparable && improve < minImprove {
		dec.Action = ActionKept
		dec.Reason = fmt.Sprintf("utility gain %.4f below threshold %.4f", improve, minImprove)
		tr.Event("elastic.fallback", obs.String("reason", dec.Reason))
		return dec
	}
	if diff.Same() {
		dec.Action, dec.Reason = ActionKept, "layout unchanged"
		// The regime changed even though the layout did not; adopt the
		// new utility as the incumbent's so future comparisons are
		// against the right objective.
		c.utility = dec.Utility
		return dec
	}
	epoch, dropped, err := swap(res.Layout, w.HotKeys)
	if err != nil {
		dec.Action, dec.Reason = ActionKept, fmt.Sprintf("migration failed: %v", err)
		tr.Event("elastic.fallback", obs.String("reason", dec.Reason))
		return dec
	}
	dec.Action, dec.Epoch, dec.DroppedKV = ActionAdopted, epoch, dropped
	c.layout, c.utility = res.Layout, dec.Utility
	tr.Event("elastic.adopt",
		obs.String("diff", diff.String()),
		obs.Int("dropped_kv", dropped),
		obs.Int64("epoch", int64(dec.Epoch)),
		obs.String("p4_sha256", res.Certificate.P4SHA256),
	)
	return dec
}

// improvement measures the re-solved layout against the incumbent
// under the NEW utility — the apples-to-apples comparison: would
// switching actually raise the objective we now care about? The
// incumbent's raw assignment is evaluated in the re-solve's model (the
// variable space is the retained model's; only the objective moved).
// Reports comparable=false when the spaces don't align.
func (c *Controller) improvement(mix *multitenant.Result) (float64, bool) {
	values := c.layout.Values
	if len(values) != mix.Joint.Model.NumVars() {
		return 0, false
	}
	expr, sense := mix.Joint.Model.Objective()
	incumbent := expr.Eval(values)
	gain := mix.Layout.Objective - incumbent
	if sense == ilp.Minimize {
		gain = -gain
	}
	return gain / math.Max(1, math.Abs(incumbent)), true
}
