package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfKeysDeterministic(t *testing.T) {
	a := ZipfKeys(42, 1000, 1.0, 5000)
	b := ZipfKeys(42, 1000, 1.0, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := ZipfKeys(43, 1000, 1.0, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	frac := func(s float64) float64 {
		keys := ZipfKeys(7, 10000, s, 100000)
		hot := 0
		for _, k := range keys {
			if k < 100 { // top 1% of ranks
				hot++
			}
		}
		return float64(hot) / float64(len(keys))
	}
	uniform, skewed := frac(0), frac(1.2)
	if skewed < 4*uniform {
		t.Errorf("Zipf(1.2) top-1%% share %.3f not clearly above uniform %.3f", skewed, uniform)
	}
}

func TestZipfRankOrder(t *testing.T) {
	// Lower ranks must be (statistically) more frequent.
	keys := ZipfKeys(3, 1000, 1.0, 200000)
	counts := make([]int, 1000)
	for _, k := range keys {
		counts[k]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[200]) {
		t.Errorf("rank order violated: c0=%d c10=%d c200=%d", counts[0], counts[10], counts[200])
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed int64, skew8 uint8) bool {
		s := float64(skew8%30) / 10 // 0.0 .. 2.9
		keys := ZipfKeys(seed, 64, s, 500)
		for _, k := range keys {
			if k >= 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceLengthsAndFlows(t *testing.T) {
	tr := Trace(TraceConfig{Seed: 1, Flows: 100, Skew: 1.1, Packets: 1000})
	if len(tr) != 1000 {
		t.Fatalf("trace length = %d", len(tr))
	}
	for _, p := range tr {
		if p.Flow >= 100 {
			t.Fatalf("flow %d out of range", p.Flow)
		}
		if p.Len < minPacketLen || p.Len > maxPacketLen {
			t.Fatalf("length %d out of range", p.Len)
		}
	}
}

func TestTraceDefaults(t *testing.T) {
	tr := Trace(TraceConfig{Seed: 2, Flows: 10, Packets: 50})
	for _, p := range tr {
		if p.Len < minPacketLen || p.Len > maxPacketLen {
			t.Fatalf("default length bounds violated: %d", p.Len)
		}
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	cdf := zipfCDF(100, 0.9)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Errorf("CDF tail = %g, want 1", cdf[len(cdf)-1])
	}
}

func TestZipfCDFNearOneBoundary(t *testing.T) {
	// The sampler switches implementations at s = 1 (inverse CDF below,
	// rand.Zipf above). Just below the boundary the CDF path must stay
	// well-formed and the two sides must agree qualitatively: hot ranks
	// dominate on both.
	for _, s := range []float64{0.999999, 1.0} {
		cdf := zipfCDF(5000, s)
		if math.IsNaN(cdf[0]) || cdf[0] <= 0 {
			t.Fatalf("s=%g: cdf[0] = %g", s, cdf[0])
		}
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] || math.IsNaN(cdf[i]) {
				t.Fatalf("s=%g: CDF broken at %d", s, i)
			}
		}
		if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			t.Fatalf("s=%g: tail = %g", s, cdf[len(cdf)-1])
		}
	}
	share := func(s float64) float64 {
		keys := ZipfKeys(11, 5000, s, 50000)
		hot := 0
		for _, k := range keys {
			if k < 50 {
				hot++
			}
		}
		return float64(hot) / float64(len(keys))
	}
	below, above := share(0.999999), share(1.000001)
	if below < 0.2 || above < 0.2 {
		t.Errorf("top-1%% share collapsed at the s=1 boundary: below=%.3f above=%.3f", below, above)
	}
	if r := below / above; r < 0.5 || r > 2 {
		t.Errorf("sampler discontinuity at s=1: below=%.3f above=%.3f", below, above)
	}
}

func TestZipfZeroSkewUniform(t *testing.T) {
	keys := ZipfKeys(5, 100, 0, 100000)
	counts := make([]int, 100)
	for _, k := range keys {
		counts[k]++
	}
	// Every key should land near the uniform expectation of 1000.
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("s=0 not uniform: key %d drawn %d times (expect ~1000)", k, c)
		}
	}
}

func TestTraceSeedDeterminism(t *testing.T) {
	cfg := TraceConfig{Seed: 99, Flows: 500, Skew: 1.1, Packets: 2000}
	a, b := Trace(cfg), Trace(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverged at packet %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 100
	c := Trace(cfg)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestZipfDriftDeterministic(t *testing.T) {
	phases := []DriftPhase{
		{Skew: 1.1, Requests: 3000},
		{Skew: 1.1, RampTo: 0.5, Requests: 2000},
		{Skew: 0.5, Requests: 3000, Rotate: 40},
	}
	a := ZipfDriftKeys(17, 200, phases)
	b := ZipfDriftKeys(17, 200, phases)
	if len(a) != 8000 {
		t.Fatalf("drift stream length = %d, want 8000", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed drift streams diverged at %d", i)
		}
		if a[i] >= 200 {
			t.Fatalf("key %d out of universe", a[i])
		}
	}
	c := ZipfDriftKeys(18, 200, phases)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical drift streams")
	}
}

func TestZipfDriftPhasesShiftHotSet(t *testing.T) {
	const keys = 1000
	phases := []DriftPhase{
		{Skew: 1.2, Requests: 40000},
		{Skew: 1.2, Requests: 40000, Rotate: 500},
	}
	stream := ZipfDriftKeys(23, keys, phases)
	hotShare := func(seg []uint64, base uint64) float64 {
		hot := 0
		for _, k := range seg {
			if (k+keys-base)%keys < 20 {
				hot++
			}
		}
		return float64(hot) / float64(len(seg))
	}
	p1, p2 := stream[:40000], stream[40000:]
	// Phase 1's hot set is ranks 0..19; phase 2's is rotated to 500..519.
	if s := hotShare(p1, 0); s < 0.3 {
		t.Errorf("phase-1 hot share %.3f too low", s)
	}
	if s := hotShare(p2, 500); s < 0.3 {
		t.Errorf("phase-2 rotated hot share %.3f too low", s)
	}
	if s := hotShare(p2, 0); s > 0.1 {
		t.Errorf("phase-2 still concentrated on old hot set: %.3f", s)
	}
}

func TestZipfDriftRampMonotone(t *testing.T) {
	// A ramp from near-uniform to heavy skew should concentrate mass
	// progressively: the last quarter far hotter than the first.
	stream := ZipfDriftKeys(31, 2000, []DriftPhase{{Skew: 0.1, RampTo: 1.3, Requests: 64000}})
	share := func(seg []uint64) float64 {
		hot := 0
		for _, k := range seg {
			if k < 20 {
				hot++
			}
		}
		return float64(hot) / float64(len(seg))
	}
	first, last := share(stream[:16000]), share(stream[48000:])
	if last < 3*first {
		t.Errorf("ramp did not concentrate mass: first-quarter share %.4f, last-quarter %.4f", first, last)
	}
}
