// Command p4allbench regenerates the paper's evaluation figures and
// tables (§6) as text tables:
//
//	p4allbench -fig 4    NetCache quality surface, and the compiled shapes' hit rate
//	p4allbench -fig 7    optimal NetCache layout (stage map)
//	p4allbench -fig 9    loop-unrolling running example
//	p4allbench -fig 11   application benchmark table
//	p4allbench -fig 12   memory-elasticity sweep
//	p4allbench -fig 13   utility-function comparison
//	p4allbench -fig fairness  multi-tenant fairness sweep
//	p4allbench -fig drift  workload drift: frozen layout vs elastic controller
//	p4allbench -fig all  everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"p4all/internal/eval"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// tracer observes every compile the selected figures run; nil unless
// -trace or -summary was given.
var tracer *obs.Tracer

// figure is one -fig name and the function that prints it.
type figure struct {
	name string
	run  func(mem int) error
}

// figures lists every name -fig accepts besides "all", in the order
// -fig all prints them.
var figures = []figure{
	{"4", fig4},
	{"9", func(int) error { return fig9() }},
	{"7", fig7},
	{"11", fig11},
	{"12", func(int) error { return fig12() }},
	{"13", fig13},
	{"fairness", func(int) error { return figFairness() }},
	{"drift", func(int) error { return figDrift() }},
}

// figureNames is the -fig vocabulary: every figure name, then "all".
func figureNames() string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selectFigures returns the figures -fig name regenerates.
func selectFigures(name string) ([]figure, error) {
	if name == "all" {
		return figures, nil
	}
	for _, f := range figures {
		if f.name == name {
			return []figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want one of %s)", name, figureNames())
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: one of "+figureNames())
	mem := flag.Int("mem", 7*pisa.Mb/4, "per-stage memory bits for single-target figures")
	trace := flag.String("trace", "", "write a JSONL trace of every compile to this file (see docs/OBSERVABILITY.md)")
	summary := flag.Bool("summary", false, "print an observability summary table to stderr")
	flag.Parse()

	selected, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4allbench:", err)
		os.Exit(2)
	}

	tracer, err = obs.FromCLI(*trace, *summary, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4allbench:", err)
		os.Exit(1)
	}

	for _, f := range selected {
		fmt.Printf("==================== Figure %s ====================\n", f.name)
		if err := f.run(*mem); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "p4allbench: trace:", err)
	}
}

func fig4(mem int) error {
	budget := int64(8 * pisa.Mb)
	points := eval.Figure4(budget,
		[]int{1, 2, 3, 4},
		[]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99})
	fmt.Printf("NetCache quality (hit rate) over an %d-bit budget; Zipf %.2f over %d keys\n\n",
		budget, eval.Fig4Zipf, eval.Fig4Keys)
	fmt.Printf("%8s %10s %10s %10s\n", "cms_rows", "cms_cols", "kv_items", "hit_rate")
	for _, p := range points {
		fmt.Printf("%8d %10d %10d %9.3f\n", p.CMSRows, p.CMSCols, p.KVSlots, p.HitRate)
	}
	best := eval.BestFig4(points)
	fmt.Printf("\noptimum: rows=%d cols=%d kv_items=%d hit=%.3f (KVS-heavy with a small accurate sketch,\n"+
		"the configuration the paper's utility function selects)\n",
		best.CMSRows, best.CMSCols, best.KVSlots, best.HitRate)

	res, err := eval.Figure7(mem, tracer)
	if err != nil {
		return err
	}
	l := res.Layout
	hit, err := eval.LayoutHitRate(l)
	if err != nil {
		return err
	}
	rows, cols := l.Symbolic("cms_rows"), l.Symbolic("cms_cols")
	parts, slots := l.Symbolic("kv_parts"), l.Symbolic("kv_slots")
	fmt.Printf("\ncompiled at %.2f Mb/stage (Figure 7): cms %dx%d (%d bits), kv %dx%d (%d bits): hit rate %.4f\n",
		float64(mem)/float64(pisa.Mb), rows, cols, rows*cols*32, parts, slots, parts*slots*64, hit)
	return nil
}

func fig7(mem int) error {
	res, err := eval.Figure7(mem, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("NetCache on %s with utility 0.4*(rows*cols) + 0.6*(kv_items):\n\n", res.Target.String())
	fmt.Print(res.Layout.String())
	fmt.Printf("\ncompile time %v, certified gap %.2f%%\n", res.Phases.Total(), 100*res.Layout.Stats.Gap)
	return nil
}

func fig9() error {
	res, err := eval.Figure9()
	if err != nil {
		return err
	}
	fmt.Println("CMS loop unrolling on the 3-stage running-example target:")
	for k := 1; k <= 3; k++ {
		fit := "fits"
		if res.PathAtK[k] > 3 {
			fit = "exceeds S=3"
		}
		fmt.Printf("  K=%d: longest simple path %d (%s)\n", k, res.PathAtK[k], fit)
	}
	fmt.Printf("upper bound for rows: %d (criterion: %s) — the paper's Figure 9 result\n", res.Bound, res.Reason)
	return nil
}

func fig11(mem int) error {
	rows, err := eval.Figure11(mem, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %10s %8s %12s %9s %11s %6s\n",
		"Application", "P4All LoC", "P4 LoC", "Compile (s)", "ILP vars", "ILP constrs", "gap%")
	for _, r := range rows {
		fmt.Printf("%-12s %10d %8d %12.2f %9d %11d %6.2f\n",
			r.App, r.P4AllLoC, r.P4LoC, r.CompileTime.Seconds(), r.ILPVars, r.ILPConstrs, 100*r.Gap)
	}
	fmt.Println("\nsolved symbolic values:")
	for _, r := range rows {
		names := make([]string, 0, len(r.Symbolics))
		for n := range r.Symbolics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  %-12s", r.App)
		for _, n := range names {
			fmt.Printf(" %s=%d", n, r.Symbolics[n])
		}
		fmt.Println()
	}
	return nil
}

func fig12() error {
	pts, err := eval.Figure12(eval.DefaultFig12Mems(), tracer)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %9s %9s %10s %9s %9s %10s %6s\n",
		"mem (Mb)", "cms_rows", "cms_cols", "cms_cells", "kv_parts", "kv_slots", "kv_items", "gap%")
	for _, p := range pts {
		fmt.Printf("%10.2f %9d %9d %10d %9d %9d %10d %6.2f\n",
			float64(p.MemBits)/float64(pisa.Mb), p.CMSRows, p.CMSCols, p.CMSCells,
			p.KVParts, p.KVSlots, p.KVItems, 100*p.Gap)
	}
	return nil
}

func fig13(mem int) error {
	rows, err := eval.Figure13(mem, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("NetCache at %.2f Mb/stage with the 8 Mb key-value floor:\n\n", float64(mem)/float64(pisa.Mb))
	fmt.Printf("%-58s %10s %10s %6s\n", "utility", "cms_cells", "kv_items", "gap%")
	for _, r := range rows {
		fmt.Printf("%-58s %10d %10d %6.2f\n", r.Utility, r.CMSCells, r.KVItems, 100*r.Gap)
	}
	return nil
}

func figFairness() error {
	res, err := eval.FigureFairness(tracer)
	if err != nil {
		return err
	}
	fmt.Printf("two tenants (%s fixed at weight 1, %s swept) jointly compiled on %s,\n"+
		"utility floors %g cells each; lp: the joint solution's utility, shipped: the\n"+
		"layout's, at the cell counts extraction floors the solution's to:\n\n",
		res.Fixed, res.Favored, res.Target.String(), res.MinUtility)
	fmt.Printf("%8s %14s %14s %14s %14s %12s %6s %6s\n", "weight",
		res.Fixed+" lp", res.Fixed+" shipped", res.Favored+" lp", res.Favored+" shipped",
		"resolve", "warm", "gap%")
	for _, p := range res.Points {
		warm := "cold"
		if p.WarmStarted {
			warm = "warm"
		}
		fmt.Printf("%8.2f %14.0f %14.0f %14.0f %14.0f %12s %6s %6.2f\n",
			p.Weight, p.FixedUtility, p.FixedDelivered, p.FavoredUtility, p.FavoredDelivered,
			p.SolveTime.Round(time.Millisecond), warm, 100*p.Gap)
	}
	fmt.Println("\nallocation follows weight; the floors keep the squeezed tenant alive")
	return nil
}

func figDrift() error {
	res, err := eval.FigureDrift(1, tracer)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatDrift(res))
	return nil
}
