package elastic

import (
	"fmt"
	"math"
)

// The detector's thresholds.
const (
	// detectAlpha is the EWMA smoothing factor for the share baseline
	// (higher weighs recent windows more).
	detectAlpha = 0.3
	// shareDelta triggers skew drift when the window's top-K share
	// departs from its EWMA baseline by more than this — about half the
	// Zipf 1.1→0.5 swing, so a single-phase change trips it while
	// sampling noise does not.
	shareDelta = 0.15
	// churnDelta triggers churn drift when the overlap between the
	// window's top-K key set and the previous window's falls below
	// 1-churnDelta.
	churnDelta = 0.5
	// cooldown suppresses triggers for this many windows after one
	// fires, giving the new baseline time to settle.
	cooldown = 2
)

// Drift is the detector's verdict for one window.
type Drift struct {
	// Triggered reports that the window departed from the baseline.
	Triggered bool
	// Reason names the first signal that fired: "skew" or "churn".
	Reason string
	// Share is the window's top-K share (the skew signal the utility
	// policy consumes).
	Share float64
	// Baseline is the EWMA share the window was compared against.
	Baseline float64
}

func (d Drift) String() string {
	if !d.Triggered {
		return fmt.Sprintf("stable (share %.3f, baseline %.3f)", d.Share, d.Baseline)
	}
	return fmt.Sprintf("drift[%s] (share %.3f, baseline %.3f)", d.Reason, d.Share, d.Baseline)
}

// Detector keeps an EWMA baseline of the skew signal and the previous
// window's hot set, and flags windows that depart from them. Not safe
// for concurrent use; the controller owns it.
type Detector struct {
	init      bool
	ewmaShare float64
	prevHot   map[uint64]struct{}
	cool      int
}

// NewDetector builds a detector with no baseline yet.
func NewDetector() *Detector {
	return &Detector{}
}

// Observe folds one window into the baselines and reports drift. On a
// trigger the baselines reset to the new window and a cooldown starts,
// so one regime change yields one trigger, not one per window.
func (d *Detector) Observe(w WindowStats) Drift {
	hot := make(map[uint64]struct{}, w.TopK)
	for i, kc := range w.HotKeys {
		if i >= w.TopK {
			break
		}
		hot[kc.Key] = struct{}{}
	}
	out := Drift{Share: w.TopShare, Baseline: d.ewmaShare}
	if !d.init {
		d.init = true
		d.ewmaShare = w.TopShare
		d.prevHot = hot
		out.Baseline = w.TopShare
		return out
	}
	if d.cool > 0 {
		d.cool--
		d.fold(w, hot)
		return out
	}
	switch {
	case math.Abs(w.TopShare-d.ewmaShare) > shareDelta:
		out.Triggered, out.Reason = true, "skew"
	case d.churn(hot) > churnDelta:
		out.Triggered, out.Reason = true, "churn"
	}
	if out.Triggered {
		// Reset the baseline to the new regime and cool down.
		d.ewmaShare = w.TopShare
		d.prevHot = hot
		d.cool = cooldown
		return out
	}
	d.fold(w, hot)
	return out
}

// fold advances the EWMA baselines with a stable window.
func (d *Detector) fold(w WindowStats, hot map[uint64]struct{}) {
	d.ewmaShare = (1-detectAlpha)*d.ewmaShare + detectAlpha*w.TopShare
	d.prevHot = hot
}

// churn returns the fraction of the previous window's top-K keys that
// left the current top-K.
func (d *Detector) churn(hot map[uint64]struct{}) float64 {
	if len(d.prevHot) == 0 {
		return 0
	}
	stay := 0
	for k := range d.prevHot {
		if _, ok := hot[k]; ok {
			stay++
		}
	}
	return 1 - float64(stay)/float64(len(d.prevHot))
}
