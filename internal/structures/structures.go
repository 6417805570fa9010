// Package structures provides behavioral Go implementations of the
// PISA data structures of the paper's Figure 1 that the repository
// serves or checks against: count-min sketch, key-value store and
// hierarchical sketch. The P4All compiler decides how large each
// structure may be; these implementations execute that decision
// packet-by-packet so the repository can evaluate application quality
// (the paper's Figure 4) without switch hardware.
package structures

import (
	"fmt"
)

// Hash is the row-hash contract every layer shares: it mixes a 64-bit
// key with a row index (splitmix64-style) so rows behave as independent
// hash functions. The simulator's hash() builtin, the translation
// validator's evaluator and these structures all call it, so the
// differential tester's golden models predict cell indexes exactly.
// Deterministic across processes, unlike maphash.
func Hash(key, row uint64) uint64 {
	x := key + (row+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// CountMinSketch approximates per-key counts in sublinear space (§3.1).
type CountMinSketch struct {
	rows, cols int
	seed       uint64
	counts     [][]uint32
}

// NewCountMinSketch allocates a sketch with the given shape. Rows and
// cols must be positive. Row r hashes with Hash(key, r) — seed 0.
func NewCountMinSketch(rows, cols int) (*CountMinSketch, error) {
	return NewCountMinSketchSeeded(rows, cols, 0)
}

// NewCountMinSketchSeeded allocates a sketch whose row r hashes with
// Hash(key, seed+r). Compiled pipelines derive each module
// instance's hash inputs from a per-module seed (NetCache's kv store
// uses 16, SketchLearn's level l uses 8l, ...); a golden sketch must
// use the same seed to index the same cells.
func NewCountMinSketchSeeded(rows, cols int, seed uint64) (*CountMinSketch, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("structures: invalid CMS shape %dx%d", rows, cols)
	}
	c := &CountMinSketch{rows: rows, cols: cols, seed: seed, counts: make([][]uint32, rows)}
	for i := range c.counts {
		c.counts[i] = make([]uint32, cols)
	}
	return c, nil
}

// Seed returns the hash seed the sketch rows offset by.
func (c *CountMinSketch) Seed() uint64 { return c.seed }

// Rows returns the sketch depth.
func (c *CountMinSketch) Rows() int { return c.rows }

// Cols returns the sketch width.
func (c *CountMinSketch) Cols() int { return c.cols }

// Update increments the key's counters and returns the new estimate
// (the minimum across rows), matching the hash/increment/min pipeline
// of Figure 6.
func (c *CountMinSketch) Update(key uint64) uint32 {
	est := ^uint32(0)
	for r := 0; r < c.rows; r++ {
		idx := Hash(key, c.seed+uint64(r)) % uint64(c.cols)
		cell := &c.counts[r][idx]
		if *cell != ^uint32(0) {
			*cell++
		}
		if *cell < est {
			est = *cell
		}
	}
	return est
}

// Add credits n occurrences of the key in one step (saturating) and
// returns the new estimate. Migration uses it to re-admit a key's
// carried count into a re-shaped sketch.
func (c *CountMinSketch) Add(key uint64, n uint32) uint32 {
	est := ^uint32(0)
	for r := 0; r < c.rows; r++ {
		idx := Hash(key, c.seed+uint64(r)) % uint64(c.cols)
		cell := &c.counts[r][idx]
		if *cell > ^uint32(0)-n {
			*cell = ^uint32(0)
		} else {
			*cell += n
		}
		if *cell < est {
			est = *cell
		}
	}
	return est
}

// Clone returns an independent deep copy of the sketch.
func (c *CountMinSketch) Clone() *CountMinSketch {
	out := &CountMinSketch{rows: c.rows, cols: c.cols, seed: c.seed, counts: make([][]uint32, c.rows)}
	for r := range c.counts {
		out.counts[r] = append([]uint32(nil), c.counts[r]...)
	}
	return out
}

// Estimate returns the current estimate without updating.
func (c *CountMinSketch) Estimate(key uint64) uint32 {
	est := ^uint32(0)
	for r := 0; r < c.rows; r++ {
		idx := Hash(key, c.seed+uint64(r)) % uint64(c.cols)
		if v := c.counts[r][idx]; v < est {
			est = v
		}
	}
	return est
}

// Reset zeroes all counters.
func (c *CountMinSketch) Reset() {
	for r := range c.counts {
		for i := range c.counts[r] {
			c.counts[r][i] = 0
		}
	}
}

// KVStore is a partitioned on-switch key-value cache in the NetCache
// style: parts×slots direct-indexed entries, each holding one key and
// value; a colliding insert evicts.
type KVStore struct {
	parts, slots int
	keys         [][]uint64
	vals         [][]uint64
	used         [][]bool
}

// NewKVStore allocates a store of parts partitions with slots entries
// each.
func NewKVStore(parts, slots int) (*KVStore, error) {
	if parts <= 0 || slots <= 0 {
		return nil, fmt.Errorf("structures: invalid KV shape %dx%d", parts, slots)
	}
	s := &KVStore{parts: parts, slots: slots}
	s.keys = make([][]uint64, parts)
	s.vals = make([][]uint64, parts)
	s.used = make([][]bool, parts)
	for i := 0; i < parts; i++ {
		s.keys[i] = make([]uint64, slots)
		s.vals[i] = make([]uint64, slots)
		s.used[i] = make([]bool, slots)
	}
	return s, nil
}

// Entry is one occupied key-value slot.
type Entry struct {
	Key, Val uint64
}

// Entries returns every occupied slot in deterministic (partition,
// slot) order — the working set a migration re-admits into a re-shaped
// store.
func (s *KVStore) Entries() []Entry {
	var out []Entry
	for p := 0; p < s.parts; p++ {
		for i := 0; i < s.slots; i++ {
			if s.used[p][i] {
				out = append(out, Entry{Key: s.keys[p][i], Val: s.vals[p][i]})
			}
		}
	}
	return out
}

// PutIfVacant inserts the key only if its slot is empty or already
// holds the key, reporting whether the value landed. Migration inserts
// in popularity-rank order, so hot keys claim contested slots first
// and are never evicted by colder colliders.
func (s *KVStore) PutIfVacant(key, val uint64) bool {
	p, i := s.slot(key)
	if s.used[p][i] && s.keys[p][i] != key {
		return false
	}
	s.keys[p][i] = key
	s.vals[p][i] = val
	s.used[p][i] = true
	return true
}

func (s *KVStore) slot(key uint64) (int, int) {
	part := int(Hash(key, 977) % uint64(s.parts))
	idx := int(Hash(key, uint64(16+part)) % uint64(s.slots))
	return part, idx
}

// Get returns the cached value for key.
func (s *KVStore) Get(key uint64) (uint64, bool) {
	p, i := s.slot(key)
	if s.used[p][i] && s.keys[p][i] == key {
		return s.vals[p][i], true
	}
	return 0, false
}

// Put inserts or overwrites the key's slot (evicting any collider),
// mirroring controller-driven cache insertion.
func (s *KVStore) Put(key, val uint64) {
	p, i := s.slot(key)
	s.keys[p][i] = key
	s.vals[p][i] = val
	s.used[p][i] = true
}

// HierarchicalSketch stacks per-bit-level count-min sketches in the
// SketchLearn style: level 0 counts every packet; level k counts
// packets whose key has bit k-1 set. Bit-level frequency ratios then
// separate large flows from noise.
type HierarchicalSketch struct {
	levels  []*CountMinSketch
	keyBits int
}

// NewHierarchicalSketch builds keyBits+1 levels of rows×cols sketches.
func NewHierarchicalSketch(keyBits, rows, cols int) (*HierarchicalSketch, error) {
	if keyBits <= 0 || keyBits > 64 {
		return nil, fmt.Errorf("structures: invalid key bits %d", keyBits)
	}
	h := &HierarchicalSketch{keyBits: keyBits}
	for l := 0; l <= keyBits; l++ {
		cms, err := NewCountMinSketch(rows, cols)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, cms)
	}
	return h, nil
}

// Update records one packet of the key at every matching level.
func (h *HierarchicalSketch) Update(key uint64) {
	h.levels[0].Update(key)
	for b := 0; b < h.keyBits; b++ {
		if key&(1<<b) != 0 {
			h.levels[b+1].Update(key)
		}
	}
}

// BitRatio returns p[b] = est(level b+1)/est(level 0) for the key, the
// per-bit statistics SketchLearn's model inference consumes.
func (h *HierarchicalSketch) BitRatio(key uint64) []float64 {
	total := h.levels[0].Estimate(key)
	out := make([]float64, h.keyBits)
	if total == 0 {
		return out
	}
	for b := 0; b < h.keyBits; b++ {
		out[b] = float64(h.levels[b+1].Estimate(key)) / float64(total)
	}
	return out
}
