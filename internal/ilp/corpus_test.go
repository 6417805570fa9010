package ilp_test

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"

	"p4all/internal/ilp"
	"p4all/internal/pisa"
)

// TestSolverCorpus is the solver's scoreboard: the twelve shipped
// programs on the evaluation target at Figure 12's nine memories
// (0.5–2.5 Mb per stage, eval.DefaultFig12Mems), 108 models, each solved
// at a 3 % gap under a 400-node limit. It prints one line per model —
// the status ("limit" when the node limit stopped it), objective, nodes,
// the root / dive / neighbourhood (nodes, found) / tree iteration split,
// the achieved gap, and how the root LP started with the iterations of
// the root race's losing side (root.go) — and a closing line with the model count, the
// limit stops, the neighbourhood iterations summed over the corpus and
// the shifted geometric means (shift 10) of nodes and iterations. A
// solver change is judged on these lines, not on one tree: run it at
// both commits and compare objectives, limit stops and the means. It
// runs only when -run names it (`go test -run TestSolverCorpus -v
// ./internal/ilp`, or `make lp-split-diff`), so the ordinary test run
// does not pay for it.
func TestSolverCorpus(t *testing.T) {
	if run := flag.Lookup("test.run"); run == nil || !strings.Contains(run.Value.String(), "Corpus") {
		t.Skip("108 solves: run with -run TestSolverCorpus")
	}
	opts := ilp.Options{Gap: 0.03, NodeLimit: 400}
	var models, limits, ballIters int
	var logNodes, logIters float64
	for _, p := range shippedPrograms() {
		for q := 2; q <= 10; q++ {
			name := fmt.Sprintf("%s @ %.2f Mb", p[0], float64(q)/4)
			sol, err := ilp.Solve(programModel(t, p[1], pisa.EvalTarget(q*pisa.Mb/4)), opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sol.RootIters+sol.DiveIters+sol.NeighbourIters+sol.TreeIters != sol.SimplexIter {
				t.Errorf("%s: split %d + %d + %d + %d does not sum to %d iterations",
					name, sol.RootIters, sol.DiveIters, sol.NeighbourIters, sol.TreeIters, sol.SimplexIter)
			}
			t.Logf("%-36s %-10v obj %12.1f  nodes %3d  iters %6d = root %4d + dive %5d + neighbourhood %5d (%2d nodes, %d found) + tree %6d  gap %6.2f%%  root %-4s (loser %4d)",
				name, sol.Status, sol.Objective, sol.Nodes, sol.SimplexIter, sol.RootIters, sol.DiveIters,
				sol.NeighbourIters, sol.NeighbourNodes, sol.NeighbourFound, sol.TreeIters, 100*sol.AchievedGap(),
				sol.RootStart, sol.RaceIters)
			models++
			if sol.Status == ilp.StatusLimit {
				limits++
			}
			ballIters += sol.NeighbourIters
			logNodes += math.Log(float64(sol.Nodes) + 10)
			logIters += math.Log(float64(sol.SimplexIter) + 10)
		}
	}
	shifted := func(sumLog float64) float64 { return math.Exp(sumLog/float64(models)) - 10 }
	t.Logf("corpus: %d models, %d limit stops, %d neighbourhood iterations; shifted geometric means (shift 10): nodes %.2f, iterations %.1f",
		models, limits, ballIters, shifted(logNodes), shifted(logIters))
}
