package eval

import (
	"fmt"
	"testing"

	"p4all/internal/pisa"
)

func TestFigure9RunningExample(t *testing.T) {
	res, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 2 {
		t.Errorf("unroll bound = %d, want 2 (Figure 9)", res.Bound)
	}
	if res.PathAtK[2] != 3 || res.PathAtK[3] != 4 {
		t.Errorf("path lengths = %v, want K=2:3, K=3:4", res.PathAtK)
	}
	if res.GraphNodes != 6 {
		t.Errorf("G_v nodes at K=3 = %d, want 6", res.GraphNodes)
	}
}

func TestFigure4QualitySurfaceShape(t *testing.T) {
	cfg := Fig4Config{Seed: 5, Keys: 20000, Requests: 120000, Zipf: 0.95, Threshold: 8, Epoch: 20000}
	budget := int64(4 * pisa.Mb)
	points := Figure4(cfg, budget, []int{1, 2, 4}, []float64{0.05, 0.3, 0.6, 0.9, 0.99})
	if len(points) < 10 {
		t.Fatalf("only %d points", len(points))
	}
	best := BestFig4(points)
	if best.HitRate <= 0.2 {
		t.Errorf("best hit rate %.3f suspiciously low", best.HitRate)
	}
	// The optimum must be interior in the KV fraction: both starving
	// the KVS and starving the CMS should do worse than the best mix.
	var kvStarved, cmsStarved float64
	for _, p := range points {
		if p.CMSRows == 2 {
			frac := float64(p.KVSlots*64) / float64(budget)
			if frac < 0.1 {
				kvStarved = p.HitRate
			}
			if frac > 0.95 {
				cmsStarved = p.HitRate
			}
		}
	}
	if best.HitRate <= kvStarved || best.HitRate <= cmsStarved {
		t.Errorf("best %.3f not above starved corners (kv-starved %.3f, cms-starved %.3f)",
			best.HitRate, kvStarved, cmsStarved)
	}
	t.Logf("best point: rows=%d cols=%d slots=%d hit=%.3f", best.CMSRows, best.CMSCols, best.KVSlots, best.HitRate)
}

func TestCountLoC(t *testing.T) {
	src := "// comment\n\na = 1;\n  // another\nb = 2;\n"
	if got := CountLoC(src); got != 2 {
		t.Errorf("CountLoC = %d, want 2", got)
	}
}

func TestFigure12Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("NetCache compiles are slow")
	}
	mems := []int{pisa.Mb, 2 * pisa.Mb}
	pts, err := Figure12(mems, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].KVItems < pts[0].KVItems {
		t.Errorf("KV items shrank with memory: %d -> %d", pts[0].KVItems, pts[1].KVItems)
	}
	if pts[1].CMSCells < pts[0].CMSCells {
		t.Errorf("CMS cells shrank with memory: %d -> %d", pts[0].CMSCells, pts[1].CMSCells)
	}
	if pts[1].KVItems <= pts[0].KVItems && pts[1].CMSCells <= pts[0].CMSCells {
		t.Errorf("nothing stretched with doubled memory: %+v", pts)
	}
	// The paper's Figure 12 note: the KVS takes the larger share.
	for _, p := range pts {
		if p.KVItems*32 < p.CMSCells*32 {
			t.Errorf("M=%d: KVS (%d items) smaller than CMS (%d cells)", p.MemBits, p.KVItems, p.CMSCells)
		}
	}
}

func TestFigure13UtilityShift(t *testing.T) {
	if testing.Short() {
		t.Skip("NetCache compiles are slow")
	}
	rows, err := Figure13(7*pisa.Mb/4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The table as separate compiles produced it: solving both utilities
	// on one retained model must not move it.
	want := []string{"229376 / 286720 / 0.00%", "2048 / 506880 / 1.41%"}
	for i, r := range rows {
		if got := fmt.Sprintf("%d / %d / %.2f%%", r.CMSCells, r.KVItems, 100*r.Gap); got != want[i] {
			t.Errorf("utility %q: cms cells / kv items / gap %s, want %s", r.Utility, got, want[i])
		}
	}
	cmsHeavy, kvHeavy := rows[0], rows[1]
	// Monotone response: raising a structure's weight must not shrink
	// it, and the CMS-heavy utility must give the CMS at least as much
	// as the KV-heavy one does.
	if cmsHeavy.CMSCells < kvHeavy.CMSCells {
		t.Errorf("CMS-heavy utility gave CMS %d cells < KV-heavy's %d", cmsHeavy.CMSCells, kvHeavy.CMSCells)
	}
	if kvHeavy.KVItems < cmsHeavy.KVItems {
		t.Errorf("KV-heavy utility gave KV %d items < CMS-heavy's %d", kvHeavy.KVItems, cmsHeavy.KVItems)
	}
	// The 8 Mb floor (in 32-bit items) must hold in both.
	const kvFloor = 8 * pisa.Mb / 32
	for _, r := range rows {
		if r.KVItems < kvFloor {
			t.Errorf("utility %q: KV items %d below the 8Mb floor %d", r.Utility, r.KVItems, kvFloor)
		}
	}
	t.Logf("fig13: cms-heavy {cms %d, kv %d} vs kv-heavy {cms %d, kv %d}",
		cmsHeavy.CMSCells, cmsHeavy.KVItems, kvHeavy.CMSCells, kvHeavy.KVItems)
}

func TestFigure11FastApps(t *testing.T) {
	// The two sub-second apps exercise the Figure 11 pipeline without
	// the NetCache solve cost.
	rows, err := Figure11(pisa.Mb, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig11Row{}
	for _, r := range rows {
		byName[r.App] = r
	}
	for _, name := range []string{"NetCache", "SketchLearn", "Precision", "ConQuest"} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("%s missing from Figure 11", name)
			continue
		}
		if r.P4AllLoC <= 0 || r.P4LoC <= 0 || r.ILPVars <= 0 || r.ILPConstrs <= 0 {
			t.Errorf("%s: degenerate row %+v", name, r)
		}
		if r.P4AllLoC > r.P4LoC {
			t.Errorf("%s: elastic source (%d) larger than generated concrete P4 (%d)", name, r.P4AllLoC, r.P4LoC)
		}
	}
	// NetCache must be the largest effective ILP of the suite (the
	// paper's Figure 11 shape).
	nc := byName["NetCache"]
	for _, r := range rows {
		if r.App != "NetCache" && r.ILPVars > nc.ILPVars {
			t.Errorf("%s ILP (%d vars) larger than NetCache (%d)", r.App, r.ILPVars, nc.ILPVars)
		}
	}
}
