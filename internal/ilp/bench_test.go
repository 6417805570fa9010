// External test package: the benchmark builds its model through
// ilpgen/apps, which import ilp.
package ilp_test

import (
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// BenchmarkILPSolveNetCache expands a fixed 24 nodes of the real
// NetCache placement ILP (the paper's Figure 10 model on the
// 1.75 Mb/stage evaluation target; ~455 vars, ~616 constraints) at one
// worker. NodeLimit pins the work, so ns/op is what a node costs, not
// how fast the model solves: a microscope to point -cpuprofile at.
// Nothing gates on it; solve time is judged by bench/'s compile-solve
// workload (ilp.solve_s, ilp.bnb_nodes, ilp.ns_per_simplex_iter).
func BenchmarkILPSolveNetCache(b *testing.B) {
	app := apps.NetCache(apps.NetCacheConfig{})
	u, err := lang.ParseAndResolve(app.Source)
	if err != nil {
		b.Fatal(err)
	}
	target := pisa.EvalTarget(7 * pisa.Mb / 4)
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nodes, iters int
	for i := 0; i < b.N; i++ {
		sol, err := ilp.Solve(prog.Model, ilp.WithoutHeuristic(ilp.Options{
			NodeLimit: 24,
		}))
		if err != nil {
			b.Fatal(err)
		}
		nodes, iters = sol.Nodes, sol.SimplexIter
	}
	b.ReportMetric(float64(nodes), "bnb-nodes")
	b.ReportMetric(float64(iters), "simplex-iters")
}

// BenchmarkILPSolveColdNetCache is one cold solve of the NetCache
// placement ILP on the 1.0 Mb/stage evaluation target as compile-solve
// runs it: one worker, 3 % gap, heuristics on, so the root LP, the
// rounding dive, the neighbourhood search around its incumbent and the
// tree if the gap is still open. The warm re-solves of
// BenchmarkMultiTenantResolve reach neither the dive nor the
// neighbourhood search; `make bench-profile` points -cpuprofile at this
// one for them. Nothing gates on it.
func BenchmarkILPSolveColdNetCache(b *testing.B) {
	m := netCacheModel(b)
	b.ResetTimer()
	var sol *ilp.Solution
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = ilp.Solve(m, ilp.Options{Gap: 0.03}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sol.Nodes), "bnb-nodes")
	b.ReportMetric(float64(sol.SimplexIter), "simplex-iters")
	b.ReportMetric(float64(sol.NeighbourIters), "neighbour-iters")
}
