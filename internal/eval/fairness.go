package eval

import (
	"fmt"
	"time"

	"p4all/internal/modules"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// FairnessConfig parameterizes the multi-tenant fairness figure.
type FairnessConfig struct {
	// MemBits is the per-stage memory of the figure's target (default
	// pisa.Mb / 4 — two register-only tenants contend long before
	// NetCache-scale budgets).
	MemBits int
	// Weights is the favored tenant's weight sweep; the other tenant is
	// pinned at weight 1 (default 0.25, 0.5, 1, 2, 4).
	Weights []float64
	// MinUtility floors both tenants (default 2048 cells) so the
	// disfavored tenant is squeezed, not evicted, at the sweep's edges.
	MinUtility float64
	// NodeLimit and TimeLimit bound each point's joint solve (defaults
	// 100000 nodes, 30 seconds). These are backstops, not the figure's
	// operating regime: with dual-simplex node re-solves every point of
	// the default sweep certifies its gap well inside them, and a point
	// that does hit a limit reports the (sound, larger) gap it proved.
	NodeLimit int
	TimeLimit time.Duration
	// Gap is the relative optimality gap each point accepts (default
	// 0.01). Monotonicity of allocation in weight only holds for
	// near-exact optima — a loose gap lets one point stop on a worse
	// incumbent than its neighbor and the figure's claim inverts. The
	// dual-simplex node re-solves make a 1% certificate cheap enough
	// to keep every point in seconds.
	Gap float64
}

func (c FairnessConfig) withDefaults() FairnessConfig {
	if c.MemBits == 0 {
		c.MemBits = pisa.Mb / 4
	}
	if len(c.Weights) == 0 {
		c.Weights = []float64{0.25, 0.5, 1, 2, 4}
	}
	if c.MinUtility == 0 {
		c.MinUtility = 2048
	}
	if c.NodeLimit == 0 {
		c.NodeLimit = 100000
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 30 * time.Second
	}
	if c.Gap == 0 {
		c.Gap = 0.01
	}
	return c
}

// fairnessTarget is the figure's switch: 8 stages rather than the
// 10-stage evaluation target. Utility floors on symmetric tenants are
// the joint solver's branch-and-bound worst case, and at 10 stages the
// root relaxation can fail to round to any incumbent within the time
// limit; 8 stages keeps every point of the sweep in seconds while still
// leaving room for the tenants to trade placement.
func fairnessTarget(memBits int) pisa.Target {
	return pisa.Target{
		Name: "fairness-eval", Stages: 8, MemoryBits: memBits,
		StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024,
	}
}

// FairnessPoint is one weight setting of the sweep.
type FairnessPoint struct {
	// Weight is the favored tenant's objective weight.
	Weight float64
	// FixedUtility/FavoredUtility are the tenants' achieved utilities
	// (total elastic cells) at this weight.
	FixedUtility   float64
	FavoredUtility float64
	// WarmStarted reports whether the solve rode the Compiler's pool
	// (everything after the first point should).
	WarmStarted bool
	// SolveTime is the joint re-solve's wall time — the figure's
	// sub-second elastic-reallocation claim is read off this column.
	SolveTime time.Duration
	Gap       float64
}

// FairnessResult is the fairness figure: how the joint compiler trades
// one pipeline between two tenants as their fairness weights shift.
type FairnessResult struct {
	Target pisa.Target
	// Fixed and Favored name the two tenants.
	Fixed, Favored string
	// MinUtility is the effective per-tenant utility floor (after
	// defaulting).
	MinUtility float64
	Points     []FairnessPoint
}

// FigureFairness sweeps the favored tenant's weight through a
// two-tenant joint compile — a count-min sketch tenant pinned at weight
// 1 against a key-value store tenant whose weight rises — and records
// each tenant's achieved utility. Both tenants are memory-bound, so
// the sweep demonstrates the multi-tenant elasticity claim directly:
// allocation follows weight monotonically, the floors keep the
// disfavored tenant alive, and every re-solve after the first is
// warm-started from the previous point's joint solution. (A tenant
// whose utility saturates on a non-memory resource — the counting
// table's rows are stateful-ALU-bound, for example — would flatline
// instead, because extra weight cannot buy it anything.)
// A non-nil tr traces one "multitenant.compile" span tree per weight.
func FigureFairness(cfg FairnessConfig, tr *obs.Tracer) (*FairnessResult, error) {
	cfg = cfg.withDefaults()
	target := fairnessTarget(cfg.MemBits)
	out := &FairnessResult{Target: target, Fixed: "sketch", Favored: "store", MinUtility: cfg.MinUtility}
	solver := FigureSolver
	solver.NodeLimit = cfg.NodeLimit
	solver.TimeLimit = cfg.TimeLimit
	solver.Gap = cfg.Gap
	comp := multitenant.NewCompiler(target, multitenant.Options{
		Solver:      solver,
		SkipCodegen: true,
		Tracer:      tr,
	})
	for _, w := range cfg.Weights {
		mix := []multitenant.Tenant{
			{Name: out.Fixed, Source: modules.StandaloneCMS(), Weight: 1, MinUtility: cfg.MinUtility},
			{Name: out.Favored, Source: modules.StandaloneKVS(), Weight: w, MinUtility: cfg.MinUtility},
		}
		begin := time.Now()
		res, err := comp.Compile(mix)
		if err != nil {
			return nil, fmt.Errorf("fairness w=%g: %w", w, err)
		}
		out.Points = append(out.Points, FairnessPoint{
			Weight:         w,
			FixedUtility:   res.Tenant(out.Fixed).Utility,
			FavoredUtility: res.Tenant(out.Favored).Utility,
			WarmStarted:    res.Layout.Stats.WarmStarted,
			SolveTime:      time.Since(begin),
			Gap:            res.Layout.Stats.Gap,
		})
	}
	return out, nil
}
