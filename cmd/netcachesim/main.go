// Command netcachesim measures NetCache cache quality: it plays a
// Zipf-skewed key-request stream against a count-min-sketch-admitted
// key-value cache with the shapes the P4All compiler chose (or shapes
// given on the command line) and reports the hit rate — the quality
// metric of the paper's Figure 4.
//
// With -drift it instead runs the workload-drift experiment: the same
// stream served by a frozen layout and by the elastic runtime
// controller, reporting per-window hit rates across a skew step (see
// docs/ELASTICITY.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/eval"
	"p4all/internal/ilp"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

func main() {
	var (
		mem      = flag.Int("mem", 7*pisa.Mb/4, "per-stage memory bits for the compiled shape")
		rows     = flag.Int("rows", 0, "CMS rows (0: use the compiler's choice)")
		cols     = flag.Int("cols", 0, "CMS cols (0: use the compiler's choice)")
		items    = flag.Int("items", 0, "KV items (0: use the compiler's choice)")
		keys     = flag.Int("keys", 100000, "key universe size")
		requests = flag.Int("requests", 400000, "request count")
		zipf     = flag.Float64("zipf", 0.95, "request skew")
		seed     = flag.Int64("seed", 1, "workload seed")
		threads  = flag.Int("threads", 0, "branch-and-bound workers per solve (0: all cores)")
		det      = flag.Bool("det", true, "reproducible compiled shapes: one branch-and-bound worker; -threads is ignored")
		trace    = flag.String("trace", "", "write a JSONL trace of the shape compile and simulation to this file")
		summary  = flag.Bool("summary", false, "print an observability summary table to stderr")
		drift    = flag.Bool("drift", false, "run the workload-drift experiment (frozen vs elastic controller)")
	)
	flag.Parse()
	solver := ilp.Options{Threads: *threads, Deterministic: *det}

	tracer, err := obs.FromCLI(*trace, *summary, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcachesim:", err)
		os.Exit(1)
	}

	if *drift {
		if err := runDrift(*seed, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim:", err)
			os.Exit(1)
		}
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim: trace:", err)
		}
		return
	}

	if *rows == 0 || *cols == 0 || *items == 0 {
		fmt.Fprintln(os.Stderr, "compiling NetCache to obtain structure shapes...")
		app := apps.NetCache(apps.NetCacheConfig{})
		res, err := core.Compile(app.Source, pisa.EvalTarget(*mem), core.Options{Solver: solver, SkipCodegen: true, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, "netcachesim:", err)
			os.Exit(1)
		}
		l := res.Layout
		if *rows == 0 {
			*rows = int(l.Symbolic("cms_rows"))
		}
		if *cols == 0 {
			*cols = int(l.Symbolic("cms_cols"))
		}
		if *items == 0 {
			*items = int(l.Symbolic("kv_parts") * l.Symbolic("kv_slots"))
		}
		fmt.Fprintf(os.Stderr, "compiler chose cms %dx%d, kv %d items (certified gap %.2f%%)\n",
			*rows, *cols, *items, 100*l.Stats.Gap)
	}

	cfg := eval.Fig4Config{
		Seed: *seed, Keys: *keys, Requests: *requests, Zipf: *zipf,
		Threshold: 8, Epoch: *requests / 8,
	}
	budget := int64(*rows)*int64(*cols)*32 + int64(*items)*64
	pts := eval.Figure4(cfg, budget, []int{*rows}, []float64{float64(int64(*items)*64) / float64(budget)})
	if len(pts) == 0 {
		fmt.Fprintln(os.Stderr, "netcachesim: degenerate configuration")
		os.Exit(1)
	}
	p := pts[0]
	tracer.Event("netcachesim.result",
		obs.Int("cms_rows", p.CMSRows),
		obs.Int("cms_cols", p.CMSCols),
		obs.Int("kv_items", p.KVSlots),
		obs.Int("requests", *requests),
		obs.Float("hit_rate", p.HitRate),
	)
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "netcachesim: trace:", err)
	}
	fmt.Printf("cms %dx%d (%d bits), kv %d items (%d bits): hit rate %.4f over %d requests\n",
		p.CMSRows, p.CMSCols, int64(p.CMSRows*p.CMSCols)*32, p.KVSlots, int64(p.KVSlots)*64, p.HitRate, *requests)
}

// runDrift renders the workload-drift experiment as a text table in
// the style of the p4allbench figures.
func runDrift(seed int64, tracer *obs.Tracer) error {
	cfg := eval.DefaultDriftConfig()
	cfg.Seed = seed
	// -det and -threads do not reach the drift experiment: the elastic
	// controller forces one deterministic worker so replays are exact.
	res, err := eval.FigureDrift(cfg, tracer)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatDrift(cfg, res))
	return nil
}
