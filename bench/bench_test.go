package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestSpecMatchesProgram: BENCHMARK.json and the run table name the
// same workloads in the same order, every name is well formed and used
// once, and setup_s is there with the largest bound.
func TestSpecMatchesProgram(t *testing.T) {
	_, spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	used := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well formed", name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range spec.EndToEnd {
		check(m.Name)
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
}

// TestSmoke runs every workload, child server included, for a sliver of
// its normal length in both modes and checks what the run prints: the
// result object holds exactly the mode's metrics, each named once in
// the table, nothing failed and every exact count repeated.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once per mode, about 25 s")
	}
	root, spec := testSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{root: root, seed: 7, seconds: 0.05, trace: trace, setups: 1, log: io.Discard}
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			var out bytes.Buffer
			rec, err := report(&out, spec, w.name, cfg, r)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, failed %d of %d", w.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := spec.metrics(trace)
			if len(last.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics in the result, BENCHMARK.json lists %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
				if n := strings.Count(out.String(), "\n  "+m.Name+" "); n > 1 {
					t.Errorf("%s (trace %v): %s is printed %d times", w.name, trace, m.Name, n)
				}
			}
		}
	}
}

// TestLayersSumToCompile: the staged pass's layer spans add up to the
// core.Compile pass beside it, within 5 %. Asserted on a cheap pair of
// programs (one validator-heavy, one solver-heavy) so that the median is
// over some thirty pairs: single passes differ by 20 % with where the
// garbage collector happens to run, so the one pair of full-size passes
// that TestSmoke's sliver of time allows says nothing.
func TestLayersSumToCompile(t *testing.T) {
	if raceEnabled {
		t.Skip("a timing ratio means nothing under the race detector")
	}
	root, _ := testSpec(t)
	progs := []program{certifyPrograms()[1], solvePrograms()[2]}
	cfg := config{root: root, seed: 1, seconds: 5, trace: true, setups: 1, log: io.Discard}
	// On a shared machine a neighbour can slow one side of many pairs; a
	// real gap in the accounting fails every attempt, noise does not.
	var ratios []float64
	for attempt := 0; attempt < 3; attempt++ {
		r, err := runCompile(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || !r.deterministic {
			t.Fatalf("failed %d, deterministic %v", r.failed, r.deterministic)
		}
		ratio := r.values["core.layer_sum_ratio"]
		if ratio >= 0.95 && ratio <= 1.05 {
			return
		}
		ratios = append(ratios, ratio)
	}
	t.Errorf("layer spans sum to %.3f of the untraced compile in three attempts, want 0.95-1.05", ratios)
}

// TestQuartileSpread pins the quartile rule to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 10.5, 13, 11.5, 10.2, 12.5}
	// quantiles → [10.15, 11.25, 12.625]; median 11.25.
	if got, want := quartileSpread(xs), (12.625-10.15)/11.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value: spread %v, want 0", got)
	}
}

// TestCompareVerdicts: within the bound is ok, beyond it regressed, and
// a spread wider than the bound with overlapping sides is unresolved.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "steady", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "slower", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	side := func(steady, slower, rate float64, noisy []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {
			"steady": {steady, steady * 1.01, steady * 0.99},
			"slower": {slower, slower * 1.01, slower * 0.99},
			"rate":   {rate, rate * 1.01, rate * 0.99},
			"noisy":  noisy,
		}}
	}
	a := side(100, 100, 1000, []float64{80, 100, 130, 95, 120})
	b := side(104, 125, 850, []float64{90, 105, 140, 85, 125})
	var out bytes.Buffer
	if code := compare(&out, spec, a, b); code != 1 {
		t.Errorf("compare returned %d, want 1 (two metrics regressed)", code)
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "regressed", "rate": "regressed", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in:\n%s", metric, verdict, out.String())
		}
	}
}
