package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestLimitStopBoundIsSound: a solve cut short by NodeLimit or TimeLimit
// must not report a BestBound tighter than the optimum of the same model
// solved without limits — the node a plunge holds when the limit fires
// goes back on the queue, so its subtree still counts toward the bound.
func TestLimitStopBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	stops := 0
	for trial := 0; trial < 240; trial++ {
		n := 10 + rng.Intn(9)
		seed := rng.Int63()
		build := func() *Model { return randomBinaryMIP(rand.New(rand.NewSource(seed)), n) }
		full, err := Solve(build(), Options{})
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
				t.Errorf("seed %d n=%d NodeLimit=%d TimeLimit=%v: BestBound %g (incumbent %g) is tighter than the optimum %g",
					seed, n, opts.NodeLimit, opts.TimeLimit, sol.BestBound, sol.Objective, full.Objective)
			}
		}
	}
	t.Logf("%d limit stops with an incumbent", stops)
	if stops < 100 {
		t.Fatalf("only %d limit stops with an incumbent; the models are too easy to exercise the bound", stops)
	}
}

// TestOneWorkerRunsOnCaller: a solve starts no goroutine — the search
// runs on the goroutine that called Solve, whatever the ignored Threads
// says.
func TestOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	inTree := 0
	_, err := Solve(correlatedKnapsack(22, 0.13), Options{
		Threads:          8,
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

// TestEffortSplitAddsUp: Effort.fields lists every counter, so add
// carries them all, and a tree search's root/dive/tree split partitions
// its simplex iterations.
func TestEffortSplitAddsUp(t *testing.T) {
	if n := reflect.TypeOf(Effort{}).NumField(); n != effortFields {
		t.Fatalf("Effort has %d fields, effortFields is %d", n, effortFields)
	}
	sol, err := Solve(correlatedKnapsack(20, 0), Options{disableHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := sol.Effort; e.Nodes < 2 || e.RootIters+e.DiveIters+e.TreeIters != e.SimplexIter {
		t.Errorf("%d nodes; split %d + %d + %d does not sum to %d iterations", e.Nodes, e.RootIters, e.DiveIters, e.TreeIters, e.SimplexIter)
	}
}

// TestDeterministicIsOneWorker: Threads and Deterministic are ignored,
// so a solve that sets them is the plain search, count for count and
// value for value.
func TestDeterministicIsOneWorker(t *testing.T) {
	build := func() *Model { return correlatedKnapsack(22, 0.13) }
	want, err := Solve(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 2, 8} {
		sol, err := Solve(build(), Options{Threads: threads, Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("Threads=%d", threads)
		if sol.Nodes != want.Nodes || sol.SimplexIter != want.SimplexIter {
			t.Errorf("%s: %d nodes / %d iters, without the knobs took %d / %d",
				label, sol.Nodes, sol.SimplexIter, want.Nodes, want.SimplexIter)
		}
		for i := range want.Values {
			if math.Float64bits(sol.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: value[%d] = %v, want %v", label, i, sol.Values[i], want.Values[i])
			}
		}
	}
}

// TestDeterministicBitStable: ten solves of the same model replay the
// identical incumbent sequence and final assignment, bit for bit, and
// the ignored Threads and Deterministic knobs change nothing of the
// trajectory.
func TestDeterministicBitStable(t *testing.T) {
	run := func(opts Options) ([]float64, []float64, float64) {
		var incumbents []float64
		opts.disableHeuristic = true // force incumbents to be found in-tree
		opts.Progress = func(p Progress) {
			if p.Kind == ProgressIncumbent {
				incumbents = append(incumbents, p.Incumbent)
			}
		}
		sol, err := Solve(correlatedKnapsack(22, 0.13), opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		return incumbents, sol.Values, sol.Objective
	}
	refInc, refVals, refObj := run(Options{})
	if len(refInc) == 0 {
		t.Fatal("no incumbent snapshots recorded; the model is too easy to exercise determinism")
	}
	check := func(label string, inc, vals []float64, obj float64) {
		t.Helper()
		if obj != refObj {
			t.Fatalf("%s: objective %v != %v", label, obj, refObj)
		}
		if len(inc) != len(refInc) {
			t.Fatalf("%s: %d incumbents, want %d (%v vs %v)", label, len(inc), len(refInc), inc, refInc)
		}
		for i := range inc {
			if inc[i] != refInc[i] {
				t.Fatalf("%s: incumbent[%d] = %v, want %v", label, i, inc[i], refInc[i])
			}
		}
		for i := range vals {
			if vals[i] != refVals[i] {
				t.Fatalf("%s: value[%d] = %v, want %v", label, i, vals[i], refVals[i])
			}
		}
	}
	for rep := 1; rep < 10; rep++ {
		inc, vals, obj := run(Options{})
		check(fmt.Sprintf("rep %d", rep), inc, vals, obj)
	}
	for _, threads := range []int{1, 4, 8} {
		inc, vals, obj := run(Options{Threads: threads, Deterministic: true})
		check(fmt.Sprintf("threads=%d", threads), inc, vals, obj)
	}
}

// TestParallelNodeLimitRespected: a tree the node limit cuts short
// reports the limit and never counts a node past it, whatever the
// ignored Threads and Deterministic knobs say.
func TestParallelNodeLimitRespected(t *testing.T) {
	for _, det := range []bool{false, true} {
		sol, err := Solve(correlatedKnapsack(22, 0), Options{
			Threads:          8,
			Deterministic:    det,
			NodeLimit:        7,
			disableHeuristic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusLimit {
			t.Fatalf("det=%v: status %v, want limit", det, sol.Status)
		}
		if sol.Nodes > 7 {
			t.Fatalf("det=%v: %d nodes exceed limit 7", det, sol.Nodes)
		}
	}
}

// TestParallelGapCertificate: a gap-limited solve returns a feasible
// incumbent whose certified gap honours the request — the bound it
// reports covers every open node, including the one a plunge holds.
func TestParallelGapCertificate(t *testing.T) {
	for _, opts := range []Options{
		{Gap: 0.03},
		{Threads: 4, Gap: 0.03, Deterministic: true},
	} {
		m := correlatedKnapsack(24, 0.4)
		sol, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("det=%v: status %v", opts.Deterministic, sol.Status)
		}
		if err := Verify(m, sol.Values); err != nil {
			t.Fatalf("det=%v: %v", opts.Deterministic, err)
		}
		if g := sol.AchievedGap(); g > 0.03+1e-9 {
			t.Fatalf("det=%v: certified gap %g > requested 0.03", opts.Deterministic, g)
		}
	}
}
