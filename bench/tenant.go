package main

import (
	"fmt"
	"time"

	"p4all/internal/ilp"
	"p4all/internal/modules"
	"p4all/internal/multitenant"
	"p4all/internal/pisa"
)

// tenantFloor is each tenant's utility floor; it forces a genuinely
// shared pipeline, since the two linear utilities otherwise tie at a
// corner.
const tenantFloor = 2048

// driftWeights is one cycle of tenant beta's weight: two nudges, after
// which the previous allocation is still within the accepted gap and
// the warm re-solve ends at the root, then two flips, which invert the
// tenant the objective favours and need a tree search.
var driftWeights = []float64{2.5, 2, 0.5, 2}

func tenantMix(weight float64) []multitenant.Tenant {
	return []multitenant.Tenant{
		{Name: "alpha", Source: modules.StandaloneCMS(), MinUtility: tenantFloor},
		{Name: "beta", Source: modules.StandaloneKVS(), MinUtility: tenantFloor, Weight: weight},
	}
}

// newTenantCompiler uses the target and solver knobs of
// BenchmarkMultiTenantResolve, the elastic controller's settings.
func newTenantCompiler() *multitenant.Compiler {
	target := pisa.Target{
		Name: "mt-test", Stages: 8, MemoryBits: 1 << 18,
		StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024,
	}
	return multitenant.NewCompiler(target, multitenant.Options{
		Solver: ilp.Options{
			Deterministic: true, Threads: 1,
			Gap: 0.1, NodeLimit: 1000, TimeLimit: 15 * time.Second,
		},
		SkipCodegen: true,
	})
}

// resolve is one joint compile through the warm-start pool, checked:
// an error, a limit, a missed floor, or (when warm is required) a solve
// that did not start from the pooled solution is a failed operation.
func resolve(r *result, c *multitenant.Compiler, weight float64, warm bool) *multitenant.Result {
	res, err := c.Compile(tenantMix(weight))
	r.attempted++
	switch {
	case err != nil:
		r.fail(1, "joint compile at weight %v: %v", weight, err)
		return nil
	case res.Layout.Stats.LimitHit:
		r.fail(1, "joint compile at weight %v stopped at a limit", weight)
	case warm && !res.Layout.Stats.WarmStarted:
		r.fail(1, "re-solve at weight %v did not warm-start", weight)
	default:
		for i, u := range res.Layout.Utilities {
			if u < tenantFloor {
				r.fail(1, "weight %v: tenant %s utility %v is below its floor", weight, res.Layout.Names[i], u)
				break
			}
		}
	}
	return res
}

// cycleCounts is what one cycle of re-solves must repeat exactly.
type cycleCounts struct {
	nudgeNodes, flipNodes int
	objectives            string
}

// driftCycle runs the four re-solves, a span around each when rec is
// set, and returns the cycle's counts, its geometric-mean objective and
// each re-solve's result and wall time.
func driftCycle(r *result, rec *recorder, c *multitenant.Compiler) (cycleCounts, float64, []*multitenant.Result, []float64) {
	var cc cycleCounts
	var objs []float64
	results := make([]*multitenant.Result, len(driftWeights))
	walls := make([]float64, len(driftWeights))
	for i, w := range driftWeights {
		id := rec.start("multitenant.compile", -1)
		t := time.Now()
		res := resolve(r, c, w, true)
		walls[i] = time.Since(t).Seconds()
		rec.end(id)
		results[i] = res
		if res == nil {
			continue
		}
		if i < 2 {
			cc.nudgeNodes += res.Layout.Stats.Nodes
		} else {
			cc.flipNodes += res.Layout.Stats.Nodes
		}
		cc.objectives += fmt.Sprintf("%v ", res.Layout.Objective)
		objs = append(objs, res.Layout.Objective)
	}
	return cc, geomean(objs), results, walls
}

// runTenantDrift measures the elastic-reallocation path: a pooled joint
// compiler re-solving the same two-tenant mix as one weight drifts.
// Set-up is the cold joint compile; the timed operation is one cycle of
// four warm re-solves.
func runTenantDrift(cfg config) (*result, error) {
	r := newResult(cfg)
	c, err := repeatSetup(cfg, r, func() (*multitenant.Compiler, error) {
		c := newTenantCompiler()
		if resolve(r, c, driftWeights[len(driftWeights)-1], false) == nil {
			return nil, fmt.Errorf("cold joint compile failed")
		}
		return c, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	// One untimed cycle is the reference the timed cycles must repeat.
	ref, refUtility, _, _ := driftCycle(r, nil, c)
	same := func(cc cycleCounts) {
		if cc != ref {
			r.nondeterministic("cycle counts %+v, first cycle %+v", cc, ref)
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		walls := loopFor(budget, 1, func() {
			cc, _, _, _ := driftCycle(r, nil, c)
			same(cc)
		})
		r.setMedian("op_ms", scale(walls, 1e3))
		r.set("ops_per_s", medianRate(walls, float64(len(driftWeights))))
		r.set("layout_utility", refUtility)
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	r.rec = newRecorder()
	var nudge, flip, solve, isolate []float64
	warmStarted, resolves := 0, 0
	cycle := func(rec *recorder) {
		cc, _, results, walls := driftCycle(r, rec, c)
		same(cc)
		nudge = append(nudge, walls[0], walls[1])
		flip = append(flip, walls[2], walls[3])
		// The phases the compiler itself reports, summed over the cycle.
		var cycleSolve, cycleIsolate float64
		for _, res := range results {
			if res == nil {
				continue
			}
			resolves++
			if res.Layout.Stats.WarmStarted {
				warmStarted++
			}
			cycleSolve += res.Phases.Solve.Seconds()
			cycleIsolate += res.Phases.Isolate.Seconds()
		}
		solve = append(solve, cycleSolve)
		isolate = append(isolate, cycleIsolate)
	}
	untraced, traced := pairs(budget, func() { cycle(nil) }, func() { cycle(r.rec) })
	r.set("multitenant.cold_compile_s", r.values["setup_s"])
	r.setMedian("multitenant.nudge_s", nudge)
	r.setMedian("multitenant.flip_s", flip)
	r.set("multitenant.nudge_bnb_nodes", float64(ref.nudgeNodes))
	r.set("multitenant.flip_bnb_nodes", float64(ref.flipNodes))
	r.set("multitenant.warm_start_share", float64(warmStarted)/float64(max(resolves, 1)))
	r.setMedian("multitenant.solve_s", solve)
	r.setMedian("multitenant.isolate_s", isolate)
	r.set("bench.trace_overhead_pct", 100*(medianRatio(traced, untraced)-1))
	finishTrace(r)
	return r, nil
}
