// Package workload generates the synthetic traffic the evaluation
// drives through compiled programs: Zipf-distributed key requests (the
// NetCache workload behind the paper's Figure 4 quality surface) and
// flow-level packet traces for the monitoring applications.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ZipfKeys samples n key requests over a universe of `keys` keys with
// Zipf skew s (s=0 degenerates to uniform). Key IDs are returned in
// popularity rank order: key 0 is the hottest.
func ZipfKeys(seed int64, keys int, s float64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	if s <= 0 {
		for i := range out {
			out[i] = uint64(rng.Intn(keys))
		}
		return out
	}
	// rand.Zipf requires s > 1; below that, sample by inverse CDF over
	// precomputed weights.
	if s > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(keys-1))
		for i := range out {
			out[i] = z.Uint64()
		}
		return out
	}
	cdf := zipfCDF(keys, s)
	for i := range out {
		out[i] = uint64(searchCDF(cdf, rng.Float64()))
	}
	return out
}

// zipfCDF builds the cumulative distribution of a Zipf(s) law over
// ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DriftPhase is one regime of a time-varying workload: Requests keys
// drawn at Zipf skew Skew (linearly ramped to RampTo when RampTo > 0),
// with the popularity ranking rotated by Rotate positions — the same
// skew served by different keys, the churn half of workload drift.
type DriftPhase struct {
	Skew     float64
	RampTo   float64 // 0 means constant skew across the phase
	Requests int
	Rotate   int
}

// rampSegments subdivides a ramped phase so the skew changes in small
// steps; a constant phase is a single segment.
const rampSegments = 16

// ZipfDriftKeys generates a key-request stream that drifts through the
// given phases over a universe of `keys` keys. The stream is a pure
// function of (seed, keys, phases): drift scenarios replay exactly.
// Key IDs follow popularity rank as in ZipfKeys, shifted per phase by
// Rotate (mod keys), so a rotation keeps the skew but moves which keys
// are hot.
func ZipfDriftKeys(seed int64, keys int, phases []DriftPhase) []uint64 {
	var out []uint64
	for pi, ph := range phases {
		segs := 1
		if ph.RampTo > 0 && ph.RampTo != ph.Skew {
			segs = rampSegments
			if ph.Requests < segs {
				segs = ph.Requests
			}
		}
		for si := 0; si < segs; si++ {
			n := ph.Requests/segs + boolInt(si < ph.Requests%segs)
			if n == 0 {
				continue
			}
			s := ph.Skew
			if segs > 1 {
				s += (ph.RampTo - ph.Skew) * float64(si) / float64(segs-1)
			}
			// Distinct deterministic sub-seed per (phase, segment).
			sub := seed ^ int64(pi+1)*0x9E3779B9 ^ int64(si+1)<<20
			ranks := ZipfKeys(sub, keys, s, n)
			for _, r := range ranks {
				out = append(out, (r+uint64(ph.Rotate))%uint64(keys))
			}
		}
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Packet is one synthetic packet: a flow key and a byte length.
type Packet struct {
	Flow uint64
	Len  int
}

// TraceConfig parameterizes a flow trace.
type TraceConfig struct {
	Seed    int64
	Flows   int     // flow universe size
	Skew    float64 // Zipf skew of flow sizes
	Packets int     // total packets
}

// Trace packet lengths are uniform in [minPacketLen, maxPacketLen].
const (
	minPacketLen = 64
	maxPacketLen = 1500
)

// Trace generates a packet trace with Zipf-skewed flow popularity.
func Trace(cfg TraceConfig) []Packet {
	keys := ZipfKeys(cfg.Seed, cfg.Flows, cfg.Skew, cfg.Packets)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	out := make([]Packet, cfg.Packets)
	for i, k := range keys {
		out[i] = Packet{Flow: k, Len: minPacketLen + rng.Intn(maxPacketLen-minPacketLen+1)}
	}
	return out
}

// TrueCounts tallies exact per-flow packet counts for a trace.
func TrueCounts(trace []Packet) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, p := range trace {
		out[p.Flow]++
	}
	return out
}

// TopK returns the k most frequent flows of a trace, hottest first.
func TopK(trace []Packet, k int) []uint64 {
	counts := TrueCounts(trace)
	type fc struct {
		f uint64
		c uint64
	}
	all := make([]fc, 0, len(counts))
	for f, c := range counts {
		all = append(all, fc{f, c})
	}
	// Selection sort of the top k (k is small in the evaluation).
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].c > all[best].c || (all[j].c == all[best].c && all[j].f < all[best].f) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].f
	}
	return out
}

// Validate sanity-checks a trace configuration.
func (cfg TraceConfig) Validate() error {
	if cfg.Flows <= 0 {
		return fmt.Errorf("workload: flows must be positive, got %d", cfg.Flows)
	}
	if cfg.Packets < 0 {
		return fmt.Errorf("workload: packets must be non-negative, got %d", cfg.Packets)
	}
	if cfg.Skew < 0 {
		return fmt.Errorf("workload: skew must be non-negative, got %g", cfg.Skew)
	}
	return nil
}
