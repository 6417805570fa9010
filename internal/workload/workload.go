// Package workload generates the synthetic traffic the evaluation
// drives through compiled programs: Zipf-distributed key requests (the
// NetCache workload behind the paper's Figure 4 quality surface) and
// flow-level packet traces for the monitoring applications.
package workload

import (
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
	if len(cdf) == 0 {
		return out // no key to draw: every request is rank 0
	}
	guide := guideTable(cdf)
	for i := range out {
		out[i] = uint64(guideSearch(cdf, guide, rng.Float64()))
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

// guideTable indexes a CDF for guideSearch (Chen and Asau's guide
// table, 1974): with K = len(cdf) buckets, guide[k] is the first index
// whose CDF value is at least k/K. Entries are int32, half the cache
// footprint of int, since a key universe is far below 2^31.
func guideTable(cdf []float64) []int32 {
	k := len(cdf)
	guide := make([]int32, k)
	i := 0
	for b := range guide {
		t := float64(b) / float64(k)
		for i < k-1 && cdf[i] < t {
			i++
		}
		guide[b] = int32(i)
	}
	return guide
}

// guideSearch returns the first index whose CDF value is at least u
// (the last index if none is), the draw of a binary search in O(1)
// expected steps. It starts at u's bucket, steps back over any index
// whose predecessor already reaches u (u·K may round up into the next
// bucket), then forward past every value below u.
func guideSearch(cdf []float64, guide []int32, u float64) int {
	i := int(guide[min(int(u*float64(len(guide))), len(guide)-1)])
	for i > 0 && cdf[i-1] >= u {
		i--
	}
	for i < len(cdf)-1 && cdf[i] < u {
		i++
	}
	return i
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
