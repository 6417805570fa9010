// NetCache end-to-end: compile the elastic NetCache application
// (count-min sketch + key-value store + forwarding), show the layout
// the utility function selected, and measure the cache hit rate the
// chosen shapes achieve on a Zipf workload — connecting the paper's
// Figure 7 layout to its Figure 4 quality surface.
//
//	go run ./examples/netcache
package main

import (
	"fmt"
	"log"

	"p4all"
	"p4all/internal/apps"
	"p4all/internal/eval"
	"p4all/internal/pisa"
)

func main() {
	app := apps.NetCache(apps.NetCacheConfig{})
	fmt.Printf("NetCache in P4All: %d source lines (elastic)\n\n", eval.CountLoC(app.Source))

	target := p4all.EvalTarget(7 * pisa.Mb / 4) // the paper's 1.75 Mb/stage
	res, err := p4all.Compile(app.Source, target, p4all.Options{Certify: true})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Certificate.Proved() {
		log.Fatalf("translation validation failed: %s", res.Certificate.Summary())
	}

	l := res.Layout
	fmt.Println("== Optimal layout (utility 0.4*cms + 0.6*kv) ==")
	fmt.Println(l)
	fmt.Printf("generated concrete P4: %d lines\ncompile time: %v\n\n",
		eval.CountLoC(res.P4), res.Phases.Total())

	// Play the Figure 4 workload against the planes the layout builds.
	rows, cols := l.Symbolic("cms_rows"), l.Symbolic("cms_cols")
	parts, slots := l.Symbolic("kv_parts"), l.Symbolic("kv_slots")
	hit, err := eval.LayoutHitRate(l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Cache quality with the compiler's shapes ==\n")
	fmt.Printf("cms %dx%d + kv %dx%d (%d items) -> hit rate %.3f on Zipf(%.2f) over %d keys\n",
		rows, cols, parts, slots, parts*slots, hit, eval.Fig4Zipf, eval.Fig4Keys)

	// Compare against a deliberately bad split (CMS hoards the memory).
	budget := rows*cols*32 + parts*slots*64
	bad := eval.Figure4(budget, []int{4}, []float64{0.05})
	if len(bad) > 0 {
		fmt.Printf("versus a CMS-heavy split of the same budget: hit rate %.3f\n", bad[0].HitRate)
	}
}
