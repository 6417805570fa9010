package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// uniqueOptimumKnapsack builds a two-constraint knapsack whose optimal
// subset is unique: every item value carries a distinct power-of-two
// style perturbation small enough not to disturb the combinatorial
// structure, so no two subsets share an objective value.
func uniqueOptimumKnapsack(n int) *Model {
	m := NewModel("unique-knapsack")
	obj := NewExpr()
	w1 := NewExpr()
	w2 := NewExpr()
	t1, t2 := 0.0, 0.0
	eps := 1.0 / 1024.0
	for i := 0; i < n; i++ {
		x := m.AddBinary("x")
		a := float64(2*i + 3)
		b := float64((i*7)%11 + 2)
		v := a + b + float64(i%3) + eps*math.Pow(2, float64(i%20))/1024
		obj.Add(x, v)
		w1.Add(x, a)
		w2.Add(x, b)
		t1 += a
		t2 += b
	}
	m.AddConstr("cap1", w1, LE, 0.5*t1-0.7)
	m.AddConstr("cap2", w2, LE, 0.6*t2-0.3)
	m.SetObjective(obj, Maximize)
	return m
}

// assertUniqueOptimum brute-forces the model and fails the test if a
// second subset ties the optimum (the cross-mode layout-equality tests
// below are only meaningful on unique-optimum instances).
func assertUniqueOptimum(t *testing.T, m *Model) {
	t.Helper()
	n := m.NumVars()
	if n > 20 {
		t.Fatalf("brute force over %d binaries is too large", n)
	}
	obj, sense := m.Objective()
	values := make([]float64, n)
	best := math.Inf(-1)
	ties := 0
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			values[i] = float64((mask >> i) & 1)
		}
		if Verify(m, values) != nil {
			continue
		}
		v := obj.Eval(values)
		if sense == Minimize {
			v = -v
		}
		switch {
		case v > best+1e-9:
			best, ties = v, 1
		case v > best-1e-9:
			ties++
		}
	}
	if ties != 1 {
		t.Fatalf("model has %d optimal subsets, want exactly 1", ties)
	}
}

// TestParallelFreeMatchesBruteForce: the asynchronous pool proves the
// same optima as exhaustive enumeration across random binary programs.
func TestParallelFreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		m := randomBinaryMIP(rng, n)
		want, feasible := bruteForceBinary(m)
		sol, err := Solve(m, Options{Threads: 4})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v\n%s", trial, sol.Status, m)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v\n%s", trial, sol.Status, m)
		}
		if !almostEqual(sol.Objective, want, 1e-5*math.Max(1, math.Abs(want))) {
			t.Fatalf("trial %d: objective %g, brute force %g\n%s", trial, sol.Objective, want, m)
		}
		if err := Verify(m, sol.Values); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Threads != 4 || len(sol.Workers) != 4 {
			t.Fatalf("trial %d: Threads=%d Workers=%d, want 4/4", trial, sol.Threads, len(sol.Workers))
		}
	}
}

// TestParallelWorkerTalliesAddUp: the per-worker tallies partition the
// solution's Effort exactly, field by field, in both parallel modes, and
// the root/dive/tree split partitions its iterations.
func TestParallelWorkerTalliesAddUp(t *testing.T) {
	if n := reflect.TypeOf(Effort{}).NumField(); n != effortFields {
		t.Fatalf("Effort has %d fields, effortFields is %d", n, effortFields)
	}
	for _, det := range []bool{false, true} {
		m := correlatedKnapsack(20, 0)
		sol, err := Solve(m, Options{Threads: 4, Deterministic: det, disableHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		var sum Effort
		for i, w := range sol.Workers {
			sum.add(w)
			treeNodes := w.Nodes
			if i == 0 {
				treeNodes-- // worker 0's first node is the root
			}
			if w.TreeIters > 0 && treeNodes == 0 {
				t.Errorf("det=%v: worker %d spent %d tree iterations in no tree node", det, i, w.TreeIters)
			}
		}
		got, want := reflect.ValueOf(sum), reflect.ValueOf(sol.Effort)
		for i := 0; i < got.NumField(); i++ {
			if g, w := got.Field(i).Int(), want.Field(i).Int(); g != w {
				name := got.Type().Field(i).Name
				t.Errorf("det=%v: workers' %s sum to %d, Solution.%s is %d", det, name, g, name, w)
			}
		}
		if e := sol.Effort; e.RootIters+e.DiveIters+e.TreeIters != e.SimplexIter {
			t.Errorf("det=%v: split %d + %d + %d does not sum to %d iterations", det, e.RootIters, e.DiveIters, e.TreeIters, e.SimplexIter)
		}
	}
}

// TestDeterministicBitStable: ten Threads=4 deterministic solves of the
// same model replay the identical incumbent sequence and final
// assignment, bit for bit.
func TestDeterministicBitStable(t *testing.T) {
	run := func(threads int) ([]float64, []float64, float64) {
		var incumbents []float64
		m := correlatedKnapsack(22, 0.13)
		sol, err := Solve(m, Options{
			Threads:          threads,
			Deterministic:    true,
			disableHeuristic: true, // force incumbents to be found in-tree
			Progress: func(p Progress) {
				if p.Kind == ProgressIncumbent {
					incumbents = append(incumbents, p.Incumbent)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		return incumbents, sol.Values, sol.Objective
	}
	refInc, refVals, refObj := run(4)
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
		inc, vals, obj := run(4)
		check(fmt.Sprintf("rep %d", rep), inc, vals, obj)
	}
	// The deterministic round size is fixed (not Threads), so the whole
	// trajectory — not just the final answer — must also be identical
	// at other thread counts, including single-threaded.
	for _, threads := range []int{1, 2, 8} {
		inc, vals, obj := run(threads)
		check(fmt.Sprintf("threads=%d", threads), inc, vals, obj)
	}
}

// TestDeterministicMatchesSequential: on a unique-optimum model every
// mode — sequential, deterministic at several widths, and the free
// pool — must land on the same assignment, and the deterministic
// solver must do so bit-identically.
func TestDeterministicMatchesSequential(t *testing.T) {
	build := func() *Model { return uniqueOptimumKnapsack(18) }
	assertUniqueOptimum(t, build())
	seq, err := Solve(build(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Status != StatusOptimal {
		t.Fatalf("sequential status %v", seq.Status)
	}
	for _, opts := range []Options{
		{Threads: 2, Deterministic: true},
		{Threads: 4, Deterministic: true},
		{Threads: 4, Deterministic: true, disableHeuristic: true},
		{Threads: 4},
		{Threads: 8},
	} {
		sol, err := Solve(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("%+v: status %v", opts, sol.Status)
		}
		for i := range sol.Values {
			if math.Round(sol.Values[i]) != math.Round(seq.Values[i]) {
				t.Fatalf("threads=%d det=%v: value[%d] = %g, sequential %g",
					opts.Threads, opts.Deterministic, i, sol.Values[i], seq.Values[i])
			}
		}
	}
}

// TestParallelIncumbentStress hammers concurrent incumbent publication:
// many workers on a model with a deep tree and no heuristic seeding,
// so incumbents race in from several plunges at once. Run under -race
// this is the data-race certificate for bestBits/bestX publication.
func TestParallelIncumbentStress(t *testing.T) {
	want, err := Solve(correlatedKnapsack(18, 0.07), Options{Threads: 1, disableHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 6; rep++ {
		sol, err := Solve(correlatedKnapsack(18, 0.07), Options{Threads: 8, disableHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("rep %d: status %v", rep, sol.Status)
		}
		if !almostEqual(sol.Objective, want.Objective, 1e-6) {
			t.Fatalf("rep %d: objective %g, sequential %g", rep, sol.Objective, want.Objective)
		}
	}
}

// TestParallelNodeLimitRespected: the atomic reserve-then-rollback
// accounting keeps Nodes at or under the limit no matter how many
// workers race for the last slot.
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

// TestParallelGapCertificate: a gap-limited parallel solve must return
// a feasible incumbent whose certified gap honors the request — the
// in-flight-node accounting in boundMinLocked is what makes this
// sound.
func TestParallelGapCertificate(t *testing.T) {
	for _, opts := range []Options{
		{Threads: 4, Gap: 0.03},
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

// TestParallelDeterministicTimeLimit: a deterministic solve that hits
// its deadline still returns a sound limit result (determinism is
// forfeited, not correctness).
func TestParallelDeterministicTimeLimit(t *testing.T) {
	sol, err := Solve(correlatedKnapsack(20, 0), Options{
		Threads:       4,
		Deterministic: true,
		TimeLimit:     1, // nanosecond: expire before the first round
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Fatalf("status %v, want limit", sol.Status)
	}
}
