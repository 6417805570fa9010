package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestLimitStopBoundIsSound: a solve cut short by NodeLimit or TimeLimit
// must not report a BestBound tighter than the optimum of the same model
// solved without limits — the node a worker holds when the limit fires
// goes back on the queue, so its subtree still counts toward the bound.
func TestLimitStopBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	stops := 0
	for trial := 0; trial < 120; trial++ {
		n := 10 + rng.Intn(9)
		seed := rng.Int63()
		build := func() *Model { return randomBinaryMIP(rand.New(rand.NewSource(seed)), n) }
		full, err := Solve(build(), Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != StatusOptimal {
			continue // infeasible draw
		}
		_, sense := build().Objective()
		limits := []Options{{TimeLimit: 30 * time.Microsecond}, {TimeLimit: 150 * time.Microsecond}}
		for nl := 2; nl <= full.Nodes && nl <= 16; nl++ {
			limits = append(limits, Options{NodeLimit: nl})
		}
		for _, opts := range limits {
			opts.disableHeuristic = true // incumbents come from the tree, so limits bite mid-search
			for _, threads := range []int{1, 4} {
				opts.Threads = threads
				sol, err := Solve(build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != StatusLimit || sol.Values == nil {
					continue
				}
				stops++
				slack := sol.BestBound - full.Objective // > 0: a minimum's lower bound lies above it
				if sense == Maximize {
					slack = -slack
				}
				if slack > 1e-6 {
					t.Errorf("seed %d n=%d threads=%d NodeLimit=%d TimeLimit=%v: BestBound %g (incumbent %g) is tighter than the optimum %g",
						seed, n, threads, opts.NodeLimit, opts.TimeLimit, sol.BestBound, sol.Objective, full.Objective)
				}
			}
		}
	}
	if stops < 100 {
		t.Fatalf("only %d limit stops with an incumbent; the models are too easy to exercise the bound", stops)
	}
}

// TestDeterministicIsOneWorker: Deterministic resolves the worker count
// to one whatever Threads says, and that solve is the plain one-worker
// search, count for count and value for value.
func TestDeterministicIsOneWorker(t *testing.T) {
	build := func() *Model { return correlatedKnapsack(22, 0.13) }
	want, err := Solve(build(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 2, 8} {
		sol, err := Solve(build(), Options{Threads: threads, Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("Threads=%d", threads)
		if sol.Threads != 1 || len(sol.Workers) != 1 {
			t.Errorf("%s: Solution.Threads=%d len(Workers)=%d, want 1/1", label, sol.Threads, len(sol.Workers))
		}
		if sol.Nodes != want.Nodes || sol.SimplexIter != want.SimplexIter {
			t.Errorf("%s: %d nodes / %d iters, Threads:1 without the flag took %d / %d",
				label, sol.Nodes, sol.SimplexIter, want.Nodes, want.SimplexIter)
		}
		for i := range want.Values {
			if math.Float64bits(sol.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: value[%d] = %v, want %v", label, i, sol.Values[i], want.Values[i])
			}
		}
	}
}

// TestOneWorkerRunsOnCaller: a one-worker solve starts no goroutine —
// the search runs on the goroutine that called Solve.
func TestOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	inTree := 0
	_, err := Solve(correlatedKnapsack(22, 0.13), Options{
		Threads:          1,
		disableHeuristic: true,
		progressEvery:    8,
		Progress: func(p Progress) {
			if p.Kind != ProgressNode && p.Kind != ProgressIncumbent {
				return
			}
			inTree++
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%d goroutines inside the search, %d before Solve", got, before)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inTree == 0 {
		t.Fatal("no progress snapshot from inside the tree search")
	}
}
