package elastic

import (
	"testing"

	"p4all/internal/workload"
)

// window fabricates WindowStats with a given top-64 share and hot-key
// base: hot keys are base..base+63 with descending counts.
func window(share float64, base uint64) WindowStats {
	hot := make([]KeyCount, 64)
	for i := range hot {
		hot[i] = KeyCount{Key: base + uint64(i), Count: uint64(1000 - i)}
	}
	return WindowStats{Requests: 20000, TopShare: share, TopK: 64, HotKeys: hot}
}

func TestDetectorSkewStep(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 4; i++ {
		if got := d.Observe(window(0.55, 0)); got.Triggered {
			t.Fatalf("stable window %d triggered: %v", i, got)
		}
	}
	got := d.Observe(window(0.04, 0))
	if !got.Triggered || got.Reason != "skew" {
		t.Fatalf("skew step not detected: %v", got)
	}
	// Cooldown then a reset baseline: the new regime must be stable.
	for i := 0; i < 5; i++ {
		if got := d.Observe(window(0.04, 0)); got.Triggered {
			t.Fatalf("post-trigger window %d re-triggered: %v", i, got)
		}
	}
}

func TestDetectorChurn(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 3; i++ {
		d.Observe(window(0.55, 0))
	}
	// Same skew, rotated hot set: >50% of the top-64 keys changed.
	got := d.Observe(window(0.55, 5000))
	if !got.Triggered || got.Reason != "churn" {
		t.Fatalf("hot-set rotation not detected: %v", got)
	}
}

func TestDetectorCooldownSuppresses(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 3; i++ {
		d.Observe(window(0.55, 0))
	}
	if got := d.Observe(window(0.04, 0)); !got.Triggered {
		t.Fatalf("step not detected: %v", got)
	}
	// Swing back immediately: cooldown must hold the trigger.
	for i := 0; i < cooldown; i++ {
		if got := d.Observe(window(0.55, 0)); got.Triggered {
			t.Fatalf("cooldown window %d triggered: %v", i, got)
		}
	}
	// The cooldown windows only nudged the baseline, so the swing back
	// still departs from it once the cooldown ends.
	if got := d.Observe(window(0.55, 0)); !got.Triggered || got.Reason != "skew" {
		t.Fatalf("swing back after the cooldown not detected: %v", got)
	}
}

func TestSummarizeSharesMatchSkew(t *testing.T) {
	heavy := workload.ZipfKeys(5, 50000, 1.1, 20000)
	flat := workload.ZipfKeys(5, 50000, 0.5, 20000)
	wh := Summarize(heavy, 0, 64, 256)
	wf := Summarize(flat, 0, 64, 256)
	if wh.TopShare < 0.4 {
		t.Errorf("Zipf 1.1 top-64 share %.3f, want > 0.4", wh.TopShare)
	}
	if wf.TopShare > 0.1 {
		t.Errorf("Zipf 0.5 top-64 share %.3f, want < 0.1", wf.TopShare)
	}
	if len(wh.HotKeys) != 256 {
		t.Errorf("hot-key carry = %d, want 256", len(wh.HotKeys))
	}
	for i := 1; i < len(wh.HotKeys); i++ {
		if wh.HotKeys[i].Count > wh.HotKeys[i-1].Count {
			t.Fatalf("hot keys not sorted at %d", i)
		}
	}
}
