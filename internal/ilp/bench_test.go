// External test package: the benchmark builds its model through
// ilpgen/apps, which import ilp.
package ilp_test

import (
	"testing"

	"p4all/internal/ilp"
)

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
