// Command benchgate is the CI benchmark-regression gate. It parses
// `go test -bench` output from stdin and either records it as the
// checked-in baseline or compares it against one:
//
//	go test -run=NONE -bench=... -count=6 ./... | benchgate -baseline BENCH_BASELINE.json -write
//	go test -run=NONE -bench=... -count=6 ./... | benchgate -baseline BENCH_BASELINE.json
//	benchgate -baseline BENCH_BASELINE.json -text > bench-old.txt   # benchstat-ready dump
//
// Comparison computes, per benchmark, the geometric mean of ns/op
// across the -count repetitions (robust to one noisy rep), then the
// geometric mean of the new/old ratios across the benchmarks matching
// -gate. If that exceeds -threshold the gate exits nonzero. Benchmarks
// outside -gate are reported but never fail the build.
//
// When the input carries allocs/op columns (run with -benchmem), a
// second gate applies: any benchmark matching -allocgate whose worst
// repetition allocates more than its baseline allows fails. A
// zero-alloc baseline allows exactly zero — the sim VM's replay
// steady state and the sharded serving runtime's per-shard hot
// loop are pinned there and a single new allocation is a real
// regression. A nonzero baseline gets -allocslack relative headroom:
// the solver benchmarks allocate in proportion to search effort, and
// a few hundred extra allocations from a slightly different tree is
// noise, while a structural regression (cloning bounds per node again)
// multiplies the count and still trips the gate. The translation
// validator's count is set-up only — a replayed path allocates nothing
// — so one allocation a path multiplies it several-fold.
//
// A third gate is cross-engine and entirely within the fresh run: for
// every BenchmarkSimReplay/<app>/engine=vm, the reference interpreter's
// geomean ns/op from the same input (.../engine=interp) must be at
// least -vmratio times the VM's — the compiled engine's speed advantage
// is an acceptance criterion, not an accident. Because both sides come
// from one run on one machine, the ratio is hermetic: machine speed
// cancels out and no baseline is consulted. Inputs without VM
// benchmarks skip this gate, so older recordings stay usable.
//
// Names are normalized by stripping the trailing -N GOMAXPROCS suffix
// so runs from machines with different core counts compare; the
// threads=N sub-benchmark dimension is part of the name and survives.
// See docs/CI.md for how the gate slots into the workflow.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the checked-in BENCH_BASELINE.json schema. Lines keeps
// the raw benchmark output so benchstat can render a human-readable
// delta against the same data the gate uses.
type Baseline struct {
	Note    string             `json:"note"`
	Lines   []string           `json:"lines"`
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp records each benchmark's worst-repetition allocs/op
	// (present only when the recording run used -benchmem).
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// gomaxprocsSuffix is the `-8` tail go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts (normalized name, ns/op) samples, allocs/op
// samples for lines that carry them (-benchmem), and the raw benchmark
// lines from go test -bench output.
func parseBench(r io.Reader) (samples, allocs map[string][]float64, lines []string, err error) {
	samples = make(map[string][]float64)
	allocs = make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		var ns, al float64
		found, allocFound := false, false
		for i := 2; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "ns/op":
				ns, err = strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", line, err)
				}
				found = true
			case "allocs/op":
				al, err = strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", line, err)
				}
				allocFound = true
			}
		}
		if !found {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		samples[name] = append(samples[name], ns)
		if allocFound {
			allocs[name] = append(allocs[name], al)
		}
		lines = append(lines, line)
	}
	return samples, allocs, lines, sc.Err()
}

// geomean of strictly positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// summarize folds repetition samples into one geomean ns/op per name.
func summarize(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = geomean(xs)
	}
	return out
}

// summarizeMax folds repetition samples into the worst (max) value per
// name — the right reduction for allocs/op, where zero is the target
// and a single allocating repetition is a genuine regression (and
// where geomean would blow up on the zeros).
func summarizeMax(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		worst := 0.0
		for _, x := range xs {
			if x > worst {
				worst = x
			}
		}
		out[name] = worst
	}
	return out
}

// compareAllocs checks every gated benchmark present in both maps for
// an allocation increase and prints violations; returns how many
// benchmarks it checked and how many regressed. A zero baseline allows
// zero; a nonzero baseline allows `base * (1 + slack)`.
func compareAllocs(w io.Writer, base, fresh map[string]float64, gate *regexp.Regexp, slack float64) (checked, regressed int) {
	names := make([]string, 0, len(base))
	for name := range base {
		if gate.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		now, ok := fresh[name]
		if !ok {
			continue
		}
		checked++
		if allowed := base[name] * (1 + slack); now > allowed {
			regressed++
			fmt.Fprintf(w, "ALLOC REGRESSION %s: %.0f allocs/op, baseline %.0f (allowed %.0f)\n", name, now, base[name], allowed)
		}
	}
	return checked, regressed
}

// vmPairName matches the VM replay rows and captures the app so the
// gate can find the interpreter's run of the same app.
var vmPairName = regexp.MustCompile(`^BenchmarkSimReplay/(.+)/engine=vm$`)

// compareVMRatio enforces the cross-engine speed contract within one
// run's summarized samples: interpreter ns/op divided by VM ns/op must
// reach minRatio for every app that has both benchmarks. It prints one
// line per pair and returns how many pairs it checked and how many fell
// short. A VM benchmark whose interpreter counterpart is absent from
// the run is reported but not counted — the gate cannot judge half a
// pair.
func compareVMRatio(w io.Writer, fresh map[string]float64, minRatio float64) (checked, failed int) {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if vmPairName.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		app := vmPairName.FindStringSubmatch(name)[1]
		interpName := "BenchmarkSimReplay/" + app + "/engine=interp"
		interp, ok := fresh[interpName]
		if !ok {
			fmt.Fprintf(w, "VM RATIO %s: no %s in this run, pair skipped\n", name, interpName)
			continue
		}
		checked++
		ratio := interp / fresh[name]
		if ratio < minRatio {
			failed++
			fmt.Fprintf(w, "VM RATIO FAIL %s: %.2fx interp, want >= %.2fx\n", name, ratio, minRatio)
		} else {
			fmt.Fprintf(w, "vm ratio %s: %.2fx interp (>= %.2fx)\n", name, ratio, minRatio)
		}
	}
	return checked, failed
}

// compare renders the delta table and returns the geomean ratio over
// the gated benchmarks plus how many of them matched.
func compare(w io.Writer, base, fresh map[string]float64, gate *regexp.Regexp) (ratio float64, gated int) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var ratios []float64
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		old := base[name]
		now, ok := fresh[name]
		if !ok {
			fmt.Fprintf(w, "%-60s %14.0f %14s %8s\n", name, old, "missing", "-")
			continue
		}
		marker := ""
		if gate.MatchString(name) {
			ratios = append(ratios, now/old)
			marker = " *"
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", name, old, now, 100*(now/old-1), marker)
	}
	for name := range fresh {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "%-60s %14s %14.0f %8s\n", name, "(new)", fresh[name], "-")
		}
	}
	if len(ratios) == 0 {
		return math.NaN(), 0
	}
	return geomean(ratios), len(ratios)
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to write or compare against")
	write := flag.Bool("write", false, "record stdin as the new baseline instead of comparing")
	text := flag.Bool("text", false, "dump the baseline's raw benchmark lines (benchstat input) and exit")
	threshold := flag.Float64("threshold", 1.25, "fail when geomean(new/old) over gated benchmarks exceeds this")
	gatePat := flag.String("gate", `^BenchmarkILPSolve|^BenchmarkSimReplay/.*engine=vm|^BenchmarkCertify|^BenchmarkMultiTenantResolve/`, "regexp selecting the benchmarks that can fail the ns/op gate")
	allocGatePat := flag.String("allocgate", `^BenchmarkSimReplay/.*engine=vm|^BenchmarkServeScaling|^BenchmarkCertify|^BenchmarkMultiTenantResolve/`, "regexp selecting the benchmarks whose allocs/op may not increase over baseline")
	allocSlack := flag.Float64("allocslack", 0.10, "relative allocs/op headroom for nonzero baselines (zero baselines always allow exactly zero)")
	vmRatio := flag.Float64("vmratio", 20, "fail when BenchmarkSimReplay/<app>/engine=vm is below this multiple of the same run's interpreter speed (0 disables)")
	flag.Parse()

	if *text {
		base, err := readBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		for _, line := range base.Lines {
			fmt.Println(line)
		}
		return
	}

	samples, allocSamples, lines, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("benchgate: no benchmark lines on stdin"))
	}

	if *write {
		base := Baseline{
			Note:        "regenerate with `make bench-baseline` on a CI-class runner; consumed by cmd/benchgate",
			Lines:       lines,
			NsPerOp:     summarize(samples),
			AllocsPerOp: summarizeMax(allocSamples),
		}
		buf, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %d benchmarks to %s\n", len(base.NsPerOp), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	gate, err := regexp.Compile(*gatePat)
	if err != nil {
		fatal(err)
	}
	allocGate, err := regexp.Compile(*allocGatePat)
	if err != nil {
		fatal(err)
	}
	fresh := summarize(samples)
	ratio, gated := compare(os.Stdout, base.NsPerOp, fresh, gate)
	if gated == 0 {
		fatal(fmt.Errorf("benchgate: no benchmarks matched gate %q", *gatePat))
	}
	failed := false
	fmt.Printf("\ngate %q: geomean new/old = %.3f over %d benchmarks (threshold %.2f)\n",
		*gatePat, ratio, gated, *threshold)
	if ratio > *threshold {
		fmt.Printf("FAIL: gated benchmarks regressed by %.1f%% geomean\n", 100*(ratio-1))
		failed = true
	}
	// The alloc gate only applies where both sides carry the data:
	// baselines recorded before -benchmem, or runs without it, skip it.
	if len(base.AllocsPerOp) > 0 && len(allocSamples) > 0 {
		checked, regressed := compareAllocs(os.Stdout, base.AllocsPerOp, summarizeMax(allocSamples), allocGate, *allocSlack)
		fmt.Printf("alloc gate %q: %d benchmarks checked, %d regressed\n", *allocGatePat, checked, regressed)
		if regressed > 0 {
			failed = true
		}
	}
	if *vmRatio > 0 {
		checked, slow := compareVMRatio(os.Stdout, fresh, *vmRatio)
		if checked == 0 {
			fmt.Println("vm ratio gate: no engine=vm/engine=interp pairs in this run, skipped")
		} else {
			fmt.Printf("vm ratio gate: %d pairs checked, %d below %.2fx\n", checked, slow, *vmRatio)
		}
		if slow > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("ok: within threshold")
}

// readBaseline loads and validates the checked-in baseline. Validation
// matters: a zero ns/op entry would make a new/old ratio Inf, and a
// negative one would make the geomean NaN — and `NaN > threshold` is
// false, so a corrupt baseline would silently pass the gate rather
// than fail it.
func readBaseline(path string) (*Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(buf))) == 0 {
		return nil, fmt.Errorf("benchgate: baseline %s is empty; regenerate with `make bench-baseline`", path)
	}
	var base Baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if len(base.NsPerOp) == 0 {
		return nil, fmt.Errorf("benchgate: baseline %s has no ns_per_op entries; regenerate with `make bench-baseline`", path)
	}
	for name, ns := range base.NsPerOp {
		if ns <= 0 || math.IsNaN(ns) || math.IsInf(ns, 0) {
			return nil, fmt.Errorf("benchgate: baseline %s: %s has invalid ns/op %v; regenerate with `make bench-baseline`", path, name, ns)
		}
	}
	// Zero allocs/op is not just valid, it's the value the alloc gate
	// exists to defend.
	for name, al := range base.AllocsPerOp {
		if al < 0 || math.IsNaN(al) || math.IsInf(al, 0) {
			return nil, fmt.Errorf("benchgate: baseline %s: %s has invalid allocs/op %v; regenerate with `make bench-baseline`", path, name, al)
		}
	}
	return &base, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
