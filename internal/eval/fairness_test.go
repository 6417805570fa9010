package eval

import (
	"testing"
	"time"
)

// TestFigureFairnessMonotone regenerates the fairness figure at a small
// budget and checks its claims: the favored tenant's utility is
// monotone non-decreasing in its weight and strictly grows across the
// sweep, the fixed tenant is squeezed down toward (but never below) its
// floor, and every re-solve after the first rides the warm-start pool.
func TestFigureFairnessMonotone(t *testing.T) {
	// The effort budget is counted, not timed: the search takes 246, 1,
	// 902 and 1 nodes for the four points on any machine, so 4000 nodes
	// is the regression bound, and TimeLimit is a backstop set where the
	// race detector's 10-20x slowdown cannot reach it (a 30 s limit cut
	// two points short under -race and changed what they solved to).
	cfg := fairnessFigure()
	cfg.weights = []float64{0.5, 1, 2, 4}
	cfg.nodeLimit = 4000
	cfg.timeLimit = 10 * time.Minute
	res, err := figureFairness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for i, p := range res.Points {
		// A point stopped by either limit reports the larger gap it had
		// proved by then.
		if p.Gap > cfg.gap+1e-9 {
			t.Errorf("w=%g: stopped at a limit with gap %.4f, want <= %.4f within %d nodes",
				p.Weight, p.Gap, cfg.gap, cfg.nodeLimit)
		}
		if p.FixedUtility < 2048-1e-6 {
			t.Errorf("w=%g: fixed tenant below its floor: %g", p.Weight, p.FixedUtility)
		}
		if p.FavoredUtility < 2048-1e-6 {
			t.Errorf("w=%g: favored tenant below its floor: %g", p.Weight, p.FavoredUtility)
		}
		// The delivered utility is the shipped shape's, not the LP's.
		for _, d := range []struct {
			delivered float64
			shape     map[string]int64
			x, y      string
		}{
			{p.FixedDelivered, p.FixedShape, "cms_rows", "cms_cols"},
			{p.FavoredDelivered, p.FavoredShape, "kv_parts", "kv_slots"},
		} {
			if want := float64(d.shape[d.x] * d.shape[d.y]); d.delivered != want {
				t.Errorf("w=%g: delivered utility %g, want %s %d x %s %d = %g",
					p.Weight, d.delivered, d.x, d.shape[d.x], d.y, d.shape[d.y], want)
			}
		}
		t.Logf("w=%g: sketch lp %.6f shipped %g, store lp %.6f shipped %g",
			p.Weight, p.FixedUtility, p.FixedDelivered, p.FavoredUtility, p.FavoredDelivered)
		if i == 0 {
			continue
		}
		if !p.WarmStarted {
			t.Errorf("w=%g: re-solve did not warm-start", p.Weight)
		}
		if p.FavoredUtility < res.Points[i-1].FavoredUtility-1e-6 {
			t.Errorf("favored utility fell with weight: w=%g %g -> w=%g %g",
				res.Points[i-1].Weight, res.Points[i-1].FavoredUtility, p.Weight, p.FavoredUtility)
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.FavoredUtility <= first.FavoredUtility {
		t.Errorf("sweep did not grow the favored tenant: %g (w=%g) -> %g (w=%g)",
			first.FavoredUtility, first.Weight, last.FavoredUtility, last.Weight)
	}
	if last.FixedUtility >= first.FixedUtility {
		t.Errorf("sweep did not squeeze the fixed tenant: %g -> %g",
			first.FixedUtility, last.FixedUtility)
	}
}
