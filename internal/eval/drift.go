package eval

import (
	"fmt"
	"strings"

	"p4all/internal/apps"
	"p4all/internal/elastic"
	"p4all/internal/ilp"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/serve"
	"p4all/internal/tv"
	"p4all/internal/workload"
)

// ------------------------------------------------------------ Drift

// The drift experiment is five windows of heavy skew followed by ten
// windows of a flat workload — the regime shift the controller exists
// to absorb — served once by a frozen layout and once by the elastic
// controller.
const (
	driftKeys      = 50000 // key universe
	driftWindow    = 20000 // requests per controller window
	driftHeavy     = 1.1   // skew of the first five windows
	driftFlat      = 0.5   // skew of the last ten
	driftThreshold = 8     // CMS estimate admitting a key into the cache
)

// DriftPoint is one traffic window of the experiment.
type DriftPoint struct {
	Window     int
	TopShare   float64 // observed top-64 share of the window
	HitFrozen  float64
	HitElastic float64
	Action     string // what the controller did ("", "kept", "adopted")
	Epoch      uint64 // elastic cache's epoch after the window
	// Certificate is the window's re-solve certificate (nil when no
	// re-solve finished); an adopted layout's is always proved.
	Certificate *tv.Certificate
}

// DriftResult is the paired frozen/elastic comparison.
type DriftResult struct {
	Points    []DriftPoint
	Resolves  int  // re-solves the controller ran
	Adoptions int  // how many were adopted
	AllWarm   bool // every re-solve was warm-started from the incumbent
	// Steady-state hit rates: the mean over the final three windows,
	// once the elastic run has settled into the new regime.
	FrozenSteady  float64
	ElasticSteady float64
	// Final cache capacities (items), showing where the memory went.
	FrozenKVItems  int64
	ElasticKVItems int64
}

// FigureDrift runs the drift experiment: the same request stream is
// served by two one-shard serve.NetCaches, one frozen at the initial
// compile's layout and one the elastic controller re-shapes through
// its SwapLayout, and the per-window hit rates are compared. The elastic
// run should collapse with the frozen one at the skew step and then
// recover as the controller re-solves, certifies, and migrates. seed
// draws the request stream. A non-nil tr traces the compile and the
// controller.
func FigureDrift(seed int64, tr *obs.Tracer) (*DriftResult, error) {
	ctrl, err := elastic.New(elastic.Config{
		// The target is small enough that re-solves take tens of
		// milliseconds.
		Target: pisa.Target{
			Name: "drift-eval", Stages: 6, MemoryBits: 96 * 1024,
			StatefulALUs: 4, StatelessALUs: 100, PHVBits: 4096,
		},
		Source:       apps.NetCache(apps.NetCacheConfig{}).Source,
		InitialShare: 0.55, // both runs start tuned for the heavy phase
		// The 5% gap mirrors the controller's operating point (proving
		// 3% on this target costs more nodes than finding the optimum).
		// One worker is redundant with the controller forcing it on
		// re-solves, but stating it here keeps the experiment's
		// contract explicit: identical traces in, identical DriftPoints
		// out.
		Solver: ilp.Options{Gap: 0.05, Threads: 1},
		Tracer: tr,
	})
	if err != nil {
		return nil, fmt.Errorf("drift: compile: %w", err)
	}
	initial := ctrl.Layout()
	frozen, err := serve.NewNetCache(serve.NetCacheConfig{Layout: initial, Threshold: driftThreshold})
	if err != nil {
		return nil, fmt.Errorf("drift: frozen cache: %w", err)
	}
	defer frozen.Close()
	elasticCache, err := serve.NewNetCache(serve.NetCacheConfig{Layout: initial, Threshold: driftThreshold})
	if err != nil {
		return nil, fmt.Errorf("drift: elastic cache: %w", err)
	}
	defer elasticCache.Close()

	reqs := make([]serve.Request, driftWindow)
	hits := func(c *serve.NetCache, keys []uint64) (int, error) {
		before, _, _ := c.Stats()
		for i, k := range keys {
			reqs[i] = serve.Request{Op: serve.OpGet, Key: k}
		}
		if err := c.DispatchAll(reqs[:len(keys)]); err != nil {
			return 0, err
		}
		c.Drain()
		after, _, _ := c.Stats()
		return int(after - before), nil
	}

	stream := workload.ZipfDriftKeys(seed, driftKeys, []workload.DriftPhase{
		{Skew: driftHeavy, Requests: 5 * driftWindow},
		{Skew: driftFlat, Requests: 10 * driftWindow},
	})
	out := &DriftResult{AllWarm: true}
	win := 0
	for off := 0; off+driftWindow <= len(stream); off += driftWindow {
		keys := stream[off : off+driftWindow]
		fHits, err := hits(frozen, keys)
		if err != nil {
			return nil, fmt.Errorf("drift: frozen cache: %w", err)
		}
		eHits, err := hits(elasticCache, keys)
		if err != nil {
			return nil, fmt.Errorf("drift: elastic cache: %w", err)
		}
		w := elastic.Summarize(keys, eHits, 64, 256)
		dec := ctrl.Observe(w, elasticCache.SwapLayout)
		pt := DriftPoint{
			Window:      win,
			TopShare:    w.TopShare,
			HitFrozen:   float64(fHits) / float64(len(keys)),
			HitElastic:  w.HitRate(),
			Epoch:       elasticCache.Epoch(),
			Certificate: dec.Certificate,
		}
		switch dec.Action {
		case elastic.ActionKept:
			pt.Action = "kept"
		case elastic.ActionAdopted:
			pt.Action = "adopted"
		}
		if dec.Stats != nil {
			out.Resolves++
			if !dec.Stats.WarmStarted {
				out.AllWarm = false
			}
		}
		if dec.Action == elastic.ActionAdopted {
			out.Adoptions++
		}
		out.Points = append(out.Points, pt)
		win++
	}

	const tail = 3
	for _, pt := range out.Points[len(out.Points)-tail:] {
		out.FrozenSteady += pt.HitFrozen / float64(tail)
		out.ElasticSteady += pt.HitElastic / float64(tail)
	}
	fl, el := initial, ctrl.Layout()
	out.FrozenKVItems = fl.Symbolic("kv_parts") * fl.Symbolic("kv_slots")
	out.ElasticKVItems = el.Symbolic("kv_parts") * el.Symbolic("kv_slots")
	return out, nil
}

// FormatDrift renders a drift run as the text table `p4allbench -fig
// drift` prints.
func FormatDrift(res *DriftResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload drift: %d keys, %d-request windows, skew %.2f -> %.2f\n\n",
		driftKeys, driftWindow, driftHeavy, driftFlat)
	fmt.Fprintf(&b, "%6s %9s %8s %9s %9s %6s\n",
		"window", "top-share", "frozen", "elastic", "action", "epoch")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%6d %9.3f %8.3f %9.3f %9s %6d\n",
			p.Window, p.TopShare, p.HitFrozen, p.HitElastic, p.Action, p.Epoch)
	}
	fmt.Fprintf(&b, "\nre-solves %d (adopted %d, warm-started %v)\n", res.Resolves, res.Adoptions, res.AllWarm)
	fmt.Fprintf(&b, "steady-state hit rate: frozen %.3f, elastic %.3f\n", res.FrozenSteady, res.ElasticSteady)
	fmt.Fprintf(&b, "final kv capacity: frozen %d items, elastic %d items\n", res.FrozenKVItems, res.ElasticKVItems)
	return b.String()
}
