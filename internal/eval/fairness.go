package eval

import (
	"fmt"
	"time"

	"p4all/internal/ilp"
	"p4all/internal/modules"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// fairnessConfig parameterizes the multi-tenant fairness figure.
type fairnessConfig struct {
	// memBits is the per-stage memory of the figure's target.
	memBits int
	// weights is the favored tenant's weight sweep; the other tenant is
	// pinned at weight 1.
	weights []float64
	// minUtility floors both tenants so the disfavored tenant is
	// squeezed, not evicted, at the sweep's edges.
	minUtility float64
	// nodeLimit and timeLimit bound each point's joint solve. These are
	// backstops, not the figure's operating regime: with dual-simplex
	// node re-solves every point of the default sweep certifies its gap
	// well inside them, and a point that does hit a limit reports the
	// (sound, larger) gap it proved.
	nodeLimit int
	timeLimit time.Duration
	// gap is the relative optimality gap each point accepts.
	// Monotonicity of allocation in weight only holds for near-exact
	// optima — a loose gap lets one point stop on a worse incumbent
	// than its neighbor and the figure's claim inverts. The
	// dual-simplex node re-solves make a 1% certificate cheap enough
	// to keep every point in seconds.
	gap float64
}

// fairnessFigure is the published figure's configuration: a quarter
// megabit per stage (two register-only tenants contend long before
// NetCache-scale budgets), five weights, 2048-cell floors, a 1% gap.
func fairnessFigure() fairnessConfig {
	return fairnessConfig{
		memBits:    pisa.Mb / 4,
		weights:    []float64{0.25, 0.5, 1, 2, 4},
		minUtility: 2048,
		nodeLimit:  100000,
		timeLimit:  30 * time.Second,
		gap:        0.01,
	}
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
	// (total elastic cells) at this weight, read off the joint solution.
	FixedUtility   float64
	FavoredUtility float64
	// FixedDelivered/FavoredDelivered are the same utilities at the
	// shipped layouts' symbolic values (FixedShape/FavoredShape), which
	// extraction floors from the solution's continuous cell counts.
	FixedDelivered, FavoredDelivered float64
	FixedShape, FavoredShape         map[string]int64
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
	// MinUtility is the per-tenant utility floor.
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
func FigureFairness(tr *obs.Tracer) (*FairnessResult, error) {
	return figureFairness(fairnessFigure(), tr)
}

// figureFairness runs the sweep under cfg; tests shrink the published
// one to bound its cost.
func figureFairness(cfg fairnessConfig, tr *obs.Tracer) (*FairnessResult, error) {
	target := fairnessTarget(cfg.memBits)
	out := &FairnessResult{Target: target, Fixed: "sketch", Favored: "store", MinUtility: cfg.minUtility}
	comp := multitenant.NewCompiler(target, multitenant.Options{
		Solver:      ilp.Options{NodeLimit: cfg.nodeLimit, TimeLimit: cfg.timeLimit, Gap: cfg.gap},
		SkipCodegen: true,
		Tracer:      tr,
	})
	for _, w := range cfg.weights {
		mix := []multitenant.Tenant{
			{Name: out.Fixed, Source: modules.StandaloneCMS(), Weight: 1, MinUtility: cfg.minUtility},
			{Name: out.Favored, Source: modules.StandaloneKVS(), Weight: w, MinUtility: cfg.minUtility},
		}
		begin := time.Now()
		res, err := comp.Compile(mix)
		if err != nil {
			return nil, fmt.Errorf("fairness w=%g: %w", w, err)
		}
		fixed, favored := res.Tenant(out.Fixed), res.Tenant(out.Favored)
		out.Points = append(out.Points, FairnessPoint{
			Weight:           w,
			FixedUtility:     fixed.Utility,
			FavoredUtility:   favored.Utility,
			FixedDelivered:   fixed.Delivered,
			FavoredDelivered: favored.Delivered,
			FixedShape:       fixed.Layout.Symbolics,
			FavoredShape:     favored.Layout.Symbolics,
			WarmStarted:      res.Layout.Stats.WarmStarted,
			SolveTime:        time.Since(begin),
			Gap:              res.Layout.Stats.Gap,
		})
	}
	return out, nil
}
