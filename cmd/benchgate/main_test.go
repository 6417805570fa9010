package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: p4all/internal/ilp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkILPSolveSmall/threads=1-4         	       3	   2000000 ns/op	       716.0 bnb-nodes	      2307 simplex-iters
BenchmarkILPSolveSmall/threads=1-4         	       3	   2200000 ns/op	       716.0 bnb-nodes	      2307 simplex-iters
BenchmarkILPSolveSmall/threads=4-4         	       3	   1000000 ns/op	       716.0 bnb-nodes	      2307 simplex-iters
BenchmarkFigure9UnrollBound-4              	     100	     50000 ns/op
BenchmarkSimReplay/NetCache/engine=vm-4  	     435	   2600000 ns/op	   1575000 pkts/sec	       0 B/op	       0 allocs/op
BenchmarkSimReplay/NetCache/engine=vm-4  	     435	   2700000 ns/op	   1520000 pkts/sec	       0 B/op	       0 allocs/op
BenchmarkSimReplay/NetCache/engine=interp-4	      12	  95000000 ns/op	     43000 pkts/sec	27769712 B/op	  864890 allocs/op
PASS
ok  	p4all/internal/ilp	0.144s
`

func TestParseBenchNormalizesAndCollects(t *testing.T) {
	samples, allocs, lines, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d raw lines, want 7", len(lines))
	}
	// GOMAXPROCS suffix stripped; threads=N dimension kept.
	reps, ok := samples["BenchmarkILPSolveSmall/threads=1"]
	if !ok || len(reps) != 2 {
		t.Fatalf("threads=1 samples = %v, want 2 reps", reps)
	}
	if _, ok := samples["BenchmarkFigure9UnrollBound"]; !ok {
		t.Fatalf("figure benchmark missing: %v", samples)
	}
	// allocs/op collected only for -benchmem lines; reps preserved.
	if reps, ok := allocs["BenchmarkSimReplay/NetCache/engine=vm"]; !ok || len(reps) != 2 || reps[0] != 0 {
		t.Fatalf("vm allocs = %v, want two zero reps", reps)
	}
	if reps := allocs["BenchmarkSimReplay/NetCache/engine=interp"]; len(reps) != 1 || reps[0] != 864890 {
		t.Fatalf("interp allocs = %v", reps)
	}
	if _, ok := allocs["BenchmarkFigure9UnrollBound"]; ok {
		t.Fatal("benchmark without -benchmem columns should have no alloc samples")
	}
}

func TestSummarizeMaxTakesWorstRep(t *testing.T) {
	got := summarizeMax(map[string][]float64{"a": {0, 3, 1}, "b": {0, 0}})
	if got["a"] != 3 || got["b"] != 0 {
		t.Fatalf("summarizeMax = %v", got)
	}
}

func TestCompareAllocsFlagsOnlyGatedIncreases(t *testing.T) {
	base := map[string]float64{
		"BenchmarkSimReplay/NetCache/engine=vm":     0,
		"BenchmarkSimReplay/NetCache/engine=interp": 864890,
		"BenchmarkSimReplay/Precision/engine=vm":    0,
	}
	fresh := map[string]float64{
		"BenchmarkSimReplay/NetCache/engine=vm":     2,       // regression
		"BenchmarkSimReplay/NetCache/engine=interp": 9999999, // ungated
		"BenchmarkSimReplay/Precision/engine=vm":    0,       // fine
	}
	gate := regexp.MustCompile(`^BenchmarkSimReplay/.*engine=vm`)
	var buf strings.Builder
	checked, regressed := compareAllocs(&buf, base, fresh, gate, 0.10)
	if checked != 2 || regressed != 1 {
		t.Fatalf("checked=%d regressed=%d, want 2/1", checked, regressed)
	}
	if !strings.Contains(buf.String(), "NetCache/engine=vm") {
		t.Fatalf("violation not named:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "interp") {
		t.Fatalf("ungated benchmark flagged:\n%s", buf.String())
	}
}

func TestCompareAllocsSlackOnlyForNonzeroBaselines(t *testing.T) {
	base := map[string]float64{
		"BenchmarkMultiTenantResolve/flip":  20000,
		"BenchmarkMultiTenantResolve/nudge": 20000,
		"BenchmarkServeScaling/shards=1":    0,
	}
	fresh := map[string]float64{
		"BenchmarkMultiTenantResolve/flip":  21900, // +9.5%: inside slack
		"BenchmarkMultiTenantResolve/nudge": 22100, // +10.5%: regression
		"BenchmarkServeScaling/shards=1":    1,     // zero-pinned: regression
	}
	gate := regexp.MustCompile(`^BenchmarkMultiTenantResolve/|^BenchmarkServeScaling`)
	var buf strings.Builder
	checked, regressed := compareAllocs(&buf, base, fresh, gate, 0.10)
	if checked != 3 || regressed != 2 {
		t.Fatalf("checked=%d regressed=%d, want 3/2:\n%s", checked, regressed, buf.String())
	}
	if strings.Contains(buf.String(), "flip") {
		t.Fatalf("within-slack benchmark flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "nudge") || !strings.Contains(buf.String(), "ServeScaling") {
		t.Fatalf("regressions not named:\n%s", buf.String())
	}
}

func TestGeomean(t *testing.T) {
	got := geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v, want 2", got)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Fatal("geomean of nothing should be NaN")
	}
}

func TestCompareGatesOnlyMatchingBenchmarks(t *testing.T) {
	base := map[string]float64{
		"BenchmarkILPSolveSmall/threads=1": 1000,
		"BenchmarkILPSolveSmall/threads=4": 1000,
		"BenchmarkFigure9UnrollBound":      1000,
	}
	fresh := map[string]float64{
		"BenchmarkILPSolveSmall/threads=1": 1100, // +10%
		"BenchmarkILPSolveSmall/threads=4": 1210, // +21%
		"BenchmarkFigure9UnrollBound":      9000, // huge, but ungated
	}
	gate := regexp.MustCompile(`^BenchmarkILPSolve`)
	var buf strings.Builder
	ratio, gated := compare(&buf, base, fresh, gate)
	if gated != 2 {
		t.Fatalf("gated = %d, want 2", gated)
	}
	want := math.Sqrt(1.1 * 1.21)
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("ratio = %v, want %v", ratio, want)
	}
	if !strings.Contains(buf.String(), "BenchmarkFigure9UnrollBound") {
		t.Fatal("ungated benchmark should still appear in the delta table")
	}
}

func TestCompareVMRatioPairsWithinRun(t *testing.T) {
	fresh := map[string]float64{
		"BenchmarkSimReplay/NetCache/engine=vm":      1000, // 60x interp: ok
		"BenchmarkSimReplay/NetCache/engine=interp":  60000,
		"BenchmarkSimReplay/Precision/engine=vm":     2500, // 12x interp: too slow
		"BenchmarkSimReplay/Precision/engine=interp": 30000,
		"BenchmarkSimReplay/ConQuest/engine=vm":      1000, // no interp pair in run
		"BenchmarkSimProcess/ConQuest/engine=interp": 90000,
	}
	var buf strings.Builder
	checked, failed := compareVMRatio(&buf, fresh, 20)
	if checked != 2 || failed != 1 {
		t.Fatalf("checked=%d failed=%d, want 2/1:\n%s", checked, failed, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "VM RATIO FAIL BenchmarkSimReplay/Precision/engine=vm") {
		t.Fatalf("slow pair not flagged:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkSimReplay/ConQuest/engine=vm") || strings.Contains(out, "FAIL BenchmarkSimReplay/ConQuest") {
		t.Fatalf("half pair should be reported but not failed:\n%s", out)
	}
}

func TestCompareVMRatioNoPairs(t *testing.T) {
	var buf strings.Builder
	checked, failed := compareVMRatio(&buf, map[string]float64{"BenchmarkILPSolveSmall": 100}, 20)
	if checked != 0 || failed != 0 {
		t.Fatalf("checked=%d failed=%d on a run without VM benchmarks", checked, failed)
	}
}

func TestCompareReportsMissingAndNew(t *testing.T) {
	base := map[string]float64{"BenchmarkILPSolveGone": 1000}
	fresh := map[string]float64{"BenchmarkILPSolveAdded": 500}
	var buf strings.Builder
	ratio, gated := compare(&buf, base, fresh, regexp.MustCompile(`^BenchmarkILPSolve`))
	if gated != 0 || !math.IsNaN(ratio) {
		t.Fatalf("expected no gated overlap, got ratio=%v gated=%d", ratio, gated)
	}
	out := buf.String()
	if !strings.Contains(out, "missing") || !strings.Contains(out, "(new)") {
		t.Fatalf("delta table should flag missing and new rows:\n%s", out)
	}
}

func TestRoundTripThroughSummarize(t *testing.T) {
	samples, _, _, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	sums := summarize(samples)
	want := math.Sqrt(2000000 * 2200000)
	if got := sums["BenchmarkILPSolveSmall/threads=1"]; math.Abs(got-want) > 1 {
		t.Fatalf("summarized ns/op = %v, want %v", got, want)
	}
}

// The gate must reject a degenerate baseline with a clear error rather
// than dividing by zero: NaN/Inf geomean ratios compare false against
// the threshold, which would let a corrupt baseline pass CI silently.
func TestReadBaselineRejectsDegenerateFiles(t *testing.T) {
	cases := []struct {
		name, content, wantSubstr string
	}{
		{"empty file", "", "is empty"},
		{"whitespace only", "  \n\t\n", "is empty"},
		{"empty object", "{}", "no ns_per_op entries"},
		{"no entries", `{"ns_per_op": {}}`, "no ns_per_op entries"},
		{"not json", "Benchmark garbage", "invalid character"},
		{"zero ns/op", `{"ns_per_op": {"BenchmarkILPSolve/x": 0}}`, "invalid ns/op"},
		{"negative ns/op", `{"ns_per_op": {"BenchmarkILPSolve/x": -5}}`, "invalid ns/op"},
		{"negative allocs/op", `{"ns_per_op": {"BenchmarkILPSolve/x": 5}, "allocs_per_op": {"BenchmarkSimReplay/x": -1}}`, "invalid allocs/op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readBaseline(path)
			if err == nil {
				t.Fatalf("readBaseline accepted %s baseline", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSubstr) {
				t.Errorf("error %q does not mention %q", err, c.wantSubstr)
			}
		})
	}
}

func TestReadBaselineAcceptsValidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	content := `{"ns_per_op": {"BenchmarkILPSolve/x": 1200.5}, "allocs_per_op": {"BenchmarkSimReplay/x/engine=vm": 0}}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.NsPerOp["BenchmarkILPSolve/x"] != 1200.5 {
		t.Errorf("unexpected baseline contents: %v", base.NsPerOp)
	}
	if v, ok := base.AllocsPerOp["BenchmarkSimReplay/x/engine=vm"]; !ok || v != 0 {
		t.Errorf("zero allocs/op baseline entry not preserved: %v", base.AllocsPerOp)
	}
}
