// Package eval regenerates every figure and table of the paper's
// evaluation (§6): the NetCache quality surface (Figure 4), the
// optimal NetCache layout (Figure 7), the unrolling example (Figure 9),
// the application benchmark table (Figure 11), the memory-elasticity
// sweep (Figure 12), and the utility-function comparison (Figure 13).
// Each driver returns structured rows that cmd/p4allbench renders.
package eval

import (
	"fmt"
	"strings"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/dep"
	"p4all/internal/elastic"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
	"p4all/internal/workload"
)

// ---------------------------------------------------------------- Fig 4

// Fig4Keys and Fig4Zipf describe the request stream of every published
// Figure 4 number: NetCache-style GETs, Zipf-skewed over a fixed key
// universe.
const (
	Fig4Keys = 100000
	Fig4Zipf = 0.95
)

// fig4Stream is a Figure 4 request stream and the cache's admission
// policy; its one value outside tests is fig4Default.
type fig4Stream struct {
	seed      int64
	keys      int     // key universe
	requests  int     // request count
	zipf      float64 // request skew
	threshold uint32  // CMS estimate admitting a key into the cache
	epoch     int     // requests between CMS resets (0: no reset)
}

var fig4Default = fig4Stream{seed: 1, keys: Fig4Keys, requests: 400000, zipf: Fig4Zipf, threshold: 8, epoch: 50000}

// Fig4Point is one cell of the quality surface.
type Fig4Point struct {
	CMSRows, CMSCols int
	KVSlots          int // total cached items
	MemoryBits       int64
	HitRate          float64
}

// Figure4 sweeps (CMS shape × KV capacity) combinations under a fixed
// total memory budget and measures the cache hit rate of each — the
// paper's quality surface whose optimum the utility function targets.
func Figure4(budgetBits int64, cmsRowChoices []int, kvFractions []float64) []Fig4Point {
	return figure4(fig4Default, budgetBits, cmsRowChoices, kvFractions)
}

func figure4(w fig4Stream, budgetBits int64, cmsRowChoices []int, kvFractions []float64) []Fig4Point {
	var out []Fig4Point
	for _, rows := range cmsRowChoices {
		for _, f := range kvFractions {
			kvBits := int64(float64(budgetBits) * f)
			cmsBits := budgetBits - kvBits
			cols := int(cmsBits / int64(rows) / 32)
			slots := int(kvBits / 64)
			if cols < 1 || slots < 1 {
				continue
			}
			// The sweep's stores are not compiled: partition them
			// like the switch would.
			parts := 1 + slots/65536
			hit, err := w.layoutHitRate(&ilpgen.Layout{Symbolics: map[string]int64{
				"cms_rows": int64(rows), "cms_cols": int64(cols),
				"kv_parts": int64(parts), "kv_slots": int64((slots + parts - 1) / parts),
			}})
			if err != nil {
				continue
			}
			out = append(out, Fig4Point{
				CMSRows: rows, CMSCols: cols, KVSlots: slots,
				MemoryBits: budgetBits, HitRate: hit,
			})
		}
	}
	return out
}

// LayoutHitRate plays Figure 4's request stream against the planes a
// compiled NetCache layout builds (elastic.NewPlane: its own CMS rows
// and columns, KV partitions and slots) and returns the hit rate.
func LayoutHitRate(l *ilpgen.Layout) (float64, error) {
	return fig4Default.layoutHitRate(l)
}

func (w fig4Stream) layoutHitRate(l *ilpgen.Layout) (float64, error) {
	plane, err := elastic.NewPlane(l)
	if err != nil {
		return 0, err
	}
	reqs := workload.ZipfKeys(w.seed, w.keys, w.zipf, w.requests)
	hits := 0
	for i, key := range reqs {
		if w.epoch > 0 && i > 0 && i%w.epoch == 0 {
			plane.CMS.Reset()
		}
		if _, hit, _ := plane.ServeGet(key, w.threshold); hit {
			hits++
		}
	}
	return float64(hits) / float64(len(reqs)), nil
}

// BestFig4 returns the highest-hit-rate point.
func BestFig4(points []Fig4Point) Fig4Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.HitRate > best.HitRate {
			best = p
		}
	}
	return best
}

// ---------------------------------------------------------------- Fig 7

// Figure7 compiles NetCache against the paper's §6.2 target with the
// default utility and returns the result; Result.Layout is the
// Figure 7 stage map. A non-nil tr traces the compile.
func Figure7(memBits int, tr *obs.Tracer) (*core.Result, error) {
	app := apps.NetCache(apps.NetCacheConfig{})
	return core.Compile(app.Source, pisa.EvalTarget(memBits), core.Options{Solver: ilp.Options{}, Tracer: tr})
}

// ---------------------------------------------------------------- Fig 9

// Fig9Result reports the running example's unrolling analysis.
type Fig9Result struct {
	Bound      int           // expected 2 on the 3-stage target
	Reason     unroll.Reason // expected "path"
	PathAtK    map[int]int   // longest simple path for K = 1, 2, 3
	GraphNodes int           // nodes in G_v at K = 3 (expected 6)
}

// Figure9 reproduces the loop-unrolling example of §4.2.
func Figure9() (*Fig9Result, error) {
	u, err := lang.ParseAndResolve(fig9CMS)
	if err != nil {
		return nil, err
	}
	tgt := pisa.RunningExampleTarget()
	res, err := unroll.UpperBounds(u, &tgt)
	if err != nil {
		return nil, err
	}
	rows := u.SymbolicByName("rows")
	out := &Fig9Result{
		Bound:   res.LoopBound[rows],
		Reason:  res.Details[rows].Why,
		PathAtK: map[int]int{},
	}
	for k := 1; k <= 3; k++ {
		g := dep.BuildFor(u, rows, k, &tgt)
		out.PathAtK[k], _ = g.LongestSimplePath()
		if k == 3 {
			out.GraphNodes = len(g.Nodes)
		}
	}
	return out, nil
}

// fig9CMS is the §4 running example (no assumes, matching Figure 9's
// pure dependency analysis).
const fig9CMS = `
symbolic int rows;
symbolic int cols;
header flow_t { bit<32> id; }
struct meta {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min;
}
register<bit<32>>[cols][rows] cms;
action incr()[int i] {
    meta.index[i] = hash(flow_t.id, i) % cols;
    cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
    meta.count[i] = cms[i][meta.index[i]];
}
action set_min()[int i] { meta.min = meta.count[i]; }
control main {
    apply {
        for (i < rows) { incr()[i]; }
        for (i < rows) {
            if (meta.count[i] < meta.min) { set_min()[i]; }
        }
    }
}
optimize rows * cols;
`

// --------------------------------------------------------------- Fig 11

// Fig11Row is one line of the application benchmark table.
type Fig11Row struct {
	App         string
	P4AllLoC    int // elastic source lines
	P4LoC       int // generated concrete P4 lines (stands in for the hand-written P4)
	CompileTime time.Duration
	ILPVars     int
	ILPConstrs  int
	Gap         float64
	Symbolics   map[string]int64
}

// Figure11 compiles the four applications against the evaluation
// target and tabulates source size, compile time, and ILP size. A
// non-nil tr traces one "compile" span tree per application.
func Figure11(memBits int, tr *obs.Tracer) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, app := range apps.All() {
		res, err := core.Compile(app.Source, pisa.EvalTarget(memBits), core.Options{Solver: ilp.Options{}, Tracer: tr})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		rows = append(rows, Fig11Row{
			App:         app.Name,
			P4AllLoC:    CountLoC(app.Source),
			P4LoC:       CountLoC(res.P4),
			CompileTime: res.Phases.Total(),
			ILPVars:     res.Layout.Stats.Vars,
			ILPConstrs:  res.Layout.Stats.Constrs,
			Gap:         res.Layout.Stats.Gap,
			Symbolics:   res.Layout.Symbolics,
		})
	}
	return rows, nil
}

// CountLoC counts non-empty, non-comment-only source lines.
func CountLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

// --------------------------------------------------------------- Fig 12

// Fig12Point records NetCache structure sizes at one per-stage memory
// setting.
type Fig12Point struct {
	MemBits  int
	CMSRows  int64
	CMSCols  int64
	CMSCells int64 // rows * cols
	KVParts  int64
	KVSlots  int64
	KVItems  int64 // parts * slots
	Gap      float64
}

// Figure12 sweeps per-stage memory and records how the compiler
// stretches NetCache's structures (the elasticity result of §6.2). A
// non-nil tr traces one "compile" span tree per memory setting.
func Figure12(memBits []int, tr *obs.Tracer) ([]Fig12Point, error) {
	app := apps.NetCache(apps.NetCacheConfig{})
	var out []Fig12Point
	for _, m := range memBits {
		// The node limit, not the clock, ends a point: its solve runs
		// 60–83 s on 2 cores, too near the 90 s default to reproduce.
		solver := ilp.Options{TimeLimit: time.Hour}
		res, err := core.Compile(app.Source, pisa.EvalTarget(m), core.Options{Solver: solver, SkipCodegen: true, Tracer: tr})
		if err != nil {
			return nil, fmt.Errorf("M=%d: %w", m, err)
		}
		l := res.Layout
		out = append(out, Fig12Point{
			MemBits:  m,
			CMSRows:  l.Symbolic("cms_rows"),
			CMSCols:  l.Symbolic("cms_cols"),
			CMSCells: l.Symbolic("cms_rows") * l.Symbolic("cms_cols"),
			KVParts:  l.Symbolic("kv_parts"),
			KVSlots:  l.Symbolic("kv_slots"),
			KVItems:  l.Symbolic("kv_parts") * l.Symbolic("kv_slots"),
			Gap:      l.Stats.Gap,
		})
	}
	return out, nil
}

// DefaultFig12Mems is the paper's 0.5–2.5 Mb per-stage sweep.
func DefaultFig12Mems() []int {
	var out []int
	for m := 0.5; m <= 2.51; m += 0.25 {
		out = append(out, int(m*float64(pisa.Mb)))
	}
	return out
}

// --------------------------------------------------------------- Fig 13

// Fig13Row records NetCache sizes under one utility function.
type Fig13Row struct {
	Utility  string
	CMSCells int64
	KVItems  int64
	Gap      float64
}

// Figure13 compiles NetCache under the paper's two utility weightings
// (with the 8 Mb key-value floor the paper notes) and reports how the
// split shifts. Both solve one retained one-tenant mix: the second
// re-solves the first's model under its utility. A non-nil tr traces the
// compiles.
func Figure13(memBits int, tr *obs.Tracer) ([]Fig13Row, error) {
	utilities := []string{
		"0.4 * (kv_parts * kv_slots) + 0.6 * (cms_rows * cms_cols)",
		"0.4 * (cms_rows * cms_cols) + 0.6 * (kv_parts * kv_slots)",
	}
	// 8 Mb of 32-bit value handles.
	const kvFloor = 8 * pisa.Mb / 32
	app := apps.NetCache(apps.NetCacheConfig{KVFloorItems: kvFloor})
	c := multitenant.NewCompiler(pisa.EvalTarget(memBits), multitenant.Options{Solver: ilp.Options{}, SkipCodegen: true, Tracer: tr})
	var out []Fig13Row
	for _, util := range utilities {
		res, err := c.Compile([]multitenant.Tenant{{Name: app.Name, Source: app.Source, Utility: util}})
		if err != nil {
			return nil, fmt.Errorf("utility %q: %w", util, err)
		}
		l := res.Tenants[0].Layout
		out = append(out, Fig13Row{
			Utility:  util,
			CMSCells: l.Symbolic("cms_rows") * l.Symbolic("cms_cols"),
			KVItems:  l.Symbolic("kv_parts") * l.Symbolic("kv_slots"),
			Gap:      l.Stats.Gap,
		})
	}
	return out, nil
}
