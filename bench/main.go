// Command bench is the repository's benchmark: one program that runs
// the two paths that define the system — P4All source to a certified
// layout, and a UDP request to its reply — end to end through the entry
// points users call, checks every output against an independent
// reference, and under -trace 1 decomposes the same work layer by layer
// with spans recorded here, around each layer's public functions.
//
// BENCHMARK.json at the checkout root is the contract: its workloads,
// metric names, units and bounds are the only ones this program prints.
// See README.md for what each one means and why it is there.
//
//	bash bench/run.sh                                  # every workload, end to end
//	bash bench/run.sh -workload wire-paced -trace 1    # one workload, per layer
//	bash bench/run.sh -compare a/results.jsonl b/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSetups is how many times a run repeats its set-up; setup_s is
// the median, so one slow start does not decide it.
const defaultSetups = 3

// config is one run's inputs.
type config struct {
	root    string // checkout root
	seed    int64
	seconds float64 // length of the timed part
	trace   bool
	setups  int
	log     io.Writer // progress and failure details, never the result
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	// deterministic is false when a count that must repeat exactly
	// (solver effort, layout utility, simulated statistics) differed
	// between two passes of this run.
	deterministic bool
	values        map[string]float64
	samples       map[string]int // sample count behind a median, where one applies
	layers        []layerTime
	rec           *recorder
	log           io.Writer
	complaints    int
}

func newResult(cfg config) *result {
	return &result{deterministic: true, values: map[string]float64{}, samples: map[string]int{}, log: cfg.log}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setMedian stores the median of samples under name and remembers how
// many there were.
func (r *result) setMedian(name string, samples []float64) {
	r.values[name] = median(samples)
	r.samples[name] = len(samples)
}

// fail counts n failed operations and logs the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.complain(format, args...)
}

// nondeterministic records that a count differed between passes.
func (r *result) nondeterministic(format string, args ...any) {
	r.deterministic = false
	r.complain("not deterministic: "+format, args...)
}

func (r *result) complain(format string, args ...any) {
	if r.complaints++; r.complaints <= 8 {
		fmt.Fprintf(r.log, "  FAIL: "+format+"\n", args...)
	}
}

// finishTrace fills what every traced run reports the same way.
func finishTrace(r *result) {
	r.layers = r.rec.selfTimes()
	det := 0.0
	if r.deterministic {
		det = 1
	}
	r.set("bench.deterministic", det)
}

// peakRSSMB is this process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// loopFor calls op until budget has elapsed, at least min times, and
// returns each call's wall time in seconds.
func loopFor(budget time.Duration, min int, op func()) []float64 {
	var walls []float64
	start := time.Now()
	for len(walls) < min || time.Since(start) < budget {
		t := time.Now()
		op()
		walls = append(walls, time.Since(t).Seconds())
	}
	return walls
}

// pairs alternates a plain and a traced operation until budget has
// elapsed, so that a change in the machine's speed during the run falls
// on both alike, and returns the wall seconds of each. Which of the two
// goes first alternates too, so that a garbage collection that recurs
// once a pair does not always land on the same one.
func pairs(budget time.Duration, plain, traced func()) (plainWalls, tracedWalls []float64) {
	timed := func(op func(), walls *[]float64) {
		t := time.Now()
		op()
		*walls = append(*walls, time.Since(t).Seconds())
	}
	loopFor(budget, 1, func() {
		if len(plainWalls)%2 == 0 {
			timed(plain, &plainWalls)
			timed(traced, &tracedWalls)
		} else {
			timed(traced, &tracedWalls)
			timed(plain, &plainWalls)
		}
	})
	return plainWalls, tracedWalls
}

// medianRatio is the median over pairs of a[i] ÷ b[i].
func medianRatio(a, b []float64) float64 {
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = a[i] / b[i]
	}
	return median(ratios)
}

// medianRate is the throughput of a sequence of operations of the given
// walls, each doing units of work: consecutive operations are grouped
// into segments of at least a second, and the median segment's units per
// second is returned, which a stall shorter than half the run does not
// move.
func medianRate(walls []float64, units float64) float64 {
	var rates []float64
	var n, t float64
	for _, w := range walls {
		n += units
		if t += w; t >= 1 {
			rates = append(rates, n/t)
			n, t = 0, 0
		}
	}
	if len(rates) == 0 {
		return n / t
	}
	return median(rates)
}

// repeatSetup runs setup cfg.setups times, tearing down all but the
// last state, and stores the median wall time as setup_s.
func repeatSetup[T any](cfg config, r *result, setup func() (T, error), teardown func(T)) (T, error) {
	var state T
	var walls []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			if teardown != nil {
				teardown(state)
			}
			// Every set-up starts from an empty heap, so the repeats are
			// alike and peak memory is one set-up's, not their sum.
			var zero T
			state = zero
			runtime.GC()
		}
		t := time.Now()
		s, err := setup()
		if err != nil {
			return state, err
		}
		walls = append(walls, time.Since(t).Seconds())
		state = s
	}
	r.setMedian("setup_s", walls)
	return state, nil
}

// workloads is the run table; names and order match BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(cfg config) (*result, error)
}{
	{"compile-solve", func(cfg config) (*result, error) { return runCompile(cfg, solvePrograms()) }},
	{"compile-certify", func(cfg config) (*result, error) { return runCompile(cfg, certifyPrograms()) }},
	{"tenant-drift", runTenantDrift},
	{"dataplane-replay", runReplay},
	{"wire-saturate", func(cfg config) (*result, error) { return runWire(cfg, false) }},
	{"wire-paced", func(cfg config) (*result, error) { return runWire(cfg, true) }},
}

// outcome is the result object a run prints as its last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it to results.jsonl.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	outcome
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run's table and, as the last line, its result
// object. It fails if the workload set a name BENCHMARK.json does not
// list or left an end-to-end metric unset.
func report(w io.Writer, spec *benchSpec, name string, cfg config, r *result) (record, error) {
	list := spec.metrics(cfg.trace)
	listed := map[string]bool{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for k := range r.values {
		if !listed[k] {
			return record{}, fmt.Errorf("workload %s reports %q, which BENCHMARK.json does not list", name, k)
		}
	}
	traceInt := 0
	if cfg.trace {
		traceInt = 1
	}
	rec := record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traceInt,
		outcome: outcome{
			Correct:   r.failed == 0 && r.deterministic,
			Attempted: r.attempted, Failed: r.failed,
			Metrics: map[string]metricValue{},
		},
	}
	fmt.Fprintf(w, "workload %s (seed %d, %g s, trace %d): attempted %d, failed %d, deterministic: %v\n",
		name, cfg.seed, cfg.seconds, traceInt, r.attempted, r.failed, r.deterministic)
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !cfg.trace {
			return record{}, fmt.Errorf("workload %s did not measure %s", name, m.Name)
		}
		// Under -trace a layer the workload never enters did no work: 0.
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if !ok {
			continue
		}
		note := ""
		if n := r.samples[m.Name]; n > 0 {
			note = fmt.Sprintf("  (median of %d)", n)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", m.Name, v, m.Unit, note)
	}
	if cfg.trace {
		printSelfTimes(w, r.layers)
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		return record{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rec, nil
}

// save appends the record to dir/results.jsonl and, for a traced run,
// writes its spans beside it.
func save(dir, name string, rec record, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if r.rec != nil {
		return r.rec.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, rec.Seed)))
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run (a name from BENCHMARK.json, or all)")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 0, "length of the timed part (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", 0, "1: record spans around each layer and report the per-layer metrics")
		out      = fs.String("out", "", "directory to append results.jsonl (and, with -trace 1, span JSONL) to")
		compare  = fs.Bool("compare", false, "compare two results.jsonl files given as arguments against the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results.jsonl files")
			return 2
		}
		return runCompare(stdout, stderr, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, trace: *trace != 0, setups: defaultSetups, log: stderr}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	ran, code := 0, 0
	for _, w := range workloads {
		if *workload != "all" && *workload != w.name {
			continue
		}
		ran++
		r, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec, err := report(stdout, spec, w.name, cfg, r)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if *out != "" {
			if err := save(*out, w.name, rec, r); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	return code
}
