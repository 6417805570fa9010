// Solver benchmarks parameterized over the branch-and-bound worker
// count. Both pin NodeLimit, so every configuration expands the same
// number of nodes and a row measures what that budget costs at that
// worker count — per-node LP work plus the pool's coordination — NOT
// how fast a model solves, and the rows are not a scaling curve. An
// equal budget buys dearer nodes at two workers (NetCache's 24 nodes
// take 2 055 simplex iterations at one worker and 2 427 at two: a
// chain popped off another worker's subtree starts from a
// non-resident basis), and whether the second core pays that back
// depends on how idle it is (BENCH_BASELINE.json: 198 → 244 ms; a
// quiet two-core machine: 66 → 42 ms). The same model solved to its
// gap is 1.2–1.5× faster at two (docs/PARALLEL_SOLVER.md, "What was
// measured"). CI's bench job gates on these (see docs/CI.md).
//
// External test package: the NetCache benchmark builds its model
// through ilpgen/apps, which import ilp.
package ilp_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// benchThreadCounts is the sweep every solver benchmark runs: serial
// baseline, minimal pool, and the full machine (skipped when it would
// duplicate an earlier entry).
func benchThreadCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// benchKnapsack builds a correlated 0/1 knapsack — weights tightly
// coupled to profits, the classic branch-and-bound stress shape (LP
// bounds stay nearly flat, so pruning is weak and the tree is wide).
func benchKnapsack(n int, seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	m := ilp.NewModel(fmt.Sprintf("bench-knapsack-%d", n))
	obj, weight := ilp.NewExpr(), ilp.NewExpr()
	var total float64
	for i := 0; i < n; i++ {
		w := 8 + rng.Float64()*12
		p := w + rng.Float64()*2 // profit ≈ weight: weak LP pruning
		v := m.AddBinary(fmt.Sprintf("x%d", i))
		obj.Add(v, p)
		weight.Add(v, w)
		total += w
	}
	m.AddConstr("cap", weight, ilp.LE, total/2)
	m.SetObjective(obj, ilp.Maximize)
	return m
}

// BenchmarkILPSolveSmall solves a 26-item correlated knapsack with a
// fixed 4000-node budget per op. Node LPs take microseconds here, so
// this benchmark is dominated by search bookkeeping — it measures the
// pool's coordination overhead more than its speedup.
func BenchmarkILPSolveSmall(b *testing.B) {
	model := benchKnapsack(26, 7)
	for _, tc := range benchThreadCounts() {
		b.Run(fmt.Sprintf("threads=%d", tc), func(b *testing.B) {
			var nodes, iters int
			for i := 0; i < b.N; i++ {
				sol, err := ilp.Solve(model, ilp.Options{
					NodeLimit:        4000,
					Threads:          tc,
					DisableHeuristic: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes, iters = sol.Nodes, sol.SimplexIters
			}
			b.ReportMetric(float64(nodes), "bnb-nodes")
			b.ReportMetric(float64(iters), "simplex-iters")
		})
	}
}

// BenchmarkILPSolveNetCache solves the real NetCache placement ILP
// (the paper's Figure 10 model on the 1.75 Mb/stage evaluation
// target; ~455 vars, ~616 constraints) with a fixed node budget. Node
// LPs here run milliseconds, so the row tracks what one node costs at
// each worker count — this is the benchmark the CI gate watches.
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
	for _, tc := range benchThreadCounts() {
		b.Run(fmt.Sprintf("threads=%d", tc), func(b *testing.B) {
			var nodes, iters int
			for i := 0; i < b.N; i++ {
				sol, err := ilp.Solve(prog.Model, ilp.Options{
					NodeLimit:        24,
					IterLimit:        200000,
					Threads:          tc,
					DisableHeuristic: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes, iters = sol.Nodes, sol.SimplexIters
			}
			b.ReportMetric(float64(nodes), "bnb-nodes")
			b.ReportMetric(float64(iters), "simplex-iters")
		})
	}
}
