package structures

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCMSNeverUnderestimates(t *testing.T) {
	cms, err := NewCountMinSketch(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(500))
		cms.Update(key)
		truth[key]++
	}
	for key, want := range truth {
		if got := cms.Estimate(key); got < want {
			t.Fatalf("CMS underestimates key %d: %d < %d", key, got, want)
		}
	}
}

func TestCMSExactWhenSparse(t *testing.T) {
	// With few keys and a wide sketch, estimates should be exact.
	cms, _ := NewCountMinSketch(4, 1<<16)
	for k := uint64(0); k < 16; k++ {
		for i := uint64(0); i <= k; i++ {
			cms.Update(k)
		}
	}
	for k := uint64(0); k < 16; k++ {
		if got := cms.Estimate(k); got != uint32(k+1) {
			t.Errorf("key %d estimate = %d, want %d", k, got, k+1)
		}
	}
}

func TestCMSAccuracyImprovesWithWidth(t *testing.T) {
	load := func(cols int) float64 {
		cms, _ := NewCountMinSketch(2, cols)
		rng := rand.New(rand.NewSource(7))
		truth := map[uint64]uint32{}
		for i := 0; i < 50000; i++ {
			key := uint64(rng.Intn(5000))
			cms.Update(key)
			truth[key]++
		}
		var errSum float64
		for key, want := range truth {
			errSum += float64(cms.Estimate(key) - want)
		}
		return errSum / float64(len(truth))
	}
	narrow, wide := load(256), load(8192)
	if wide >= narrow {
		t.Errorf("mean overestimate with 8192 cols (%.2f) not better than 256 cols (%.2f)", wide, narrow)
	}
}

func TestCMSReset(t *testing.T) {
	cms, _ := NewCountMinSketch(2, 64)
	cms.Update(42)
	cms.Reset()
	if got := cms.Estimate(42); got != 0 {
		t.Errorf("estimate after reset = %d, want 0", got)
	}
}

func TestCMSInvalidShape(t *testing.T) {
	if _, err := NewCountMinSketch(0, 10); err == nil {
		t.Error("accepted zero rows")
	}
	if _, err := NewCountMinSketch(1, 0); err == nil {
		t.Error("accepted zero cols")
	}
}

func TestQuickCMSLowerBound(t *testing.T) {
	// Property: estimate(key) >= true count for any update sequence.
	f := func(keys []uint8) bool {
		cms, _ := NewCountMinSketch(3, 128)
		truth := map[uint64]uint32{}
		for _, k := range keys {
			cms.Update(uint64(k))
			truth[uint64(k)]++
		}
		for k, want := range truth {
			if cms.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKVStoreBasics(t *testing.T) {
	s, err := NewKVStore(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, 100)
	s.Put(2, 200)
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Errorf("Get(1) = %d, %v", v, ok)
	}
	if v, ok := s.Get(2); !ok || v != 200 {
		t.Errorf("Get(2) = %d, %v", v, ok)
	}
	if _, ok := s.Get(3); ok {
		t.Error("Get(3) should miss")
	}
}

func TestKVStoreOverwriteAndCollision(t *testing.T) {
	s, _ := NewKVStore(1, 1)
	s.Put(7, 70)
	s.Put(7, 71)
	if v, _ := s.Get(7); v != 71 {
		t.Errorf("overwrite failed: %d", v)
	}
	// Any other key maps to the same single slot: eviction.
	s.Put(8, 80)
	if _, ok := s.Get(7); ok {
		t.Error("evicted key still present")
	}
	if v, ok := s.Get(8); !ok || v != 80 {
		t.Errorf("evicting key missing: %d %v", v, ok)
	}
}

func TestQuickKVStoreGetAfterPut(t *testing.T) {
	f := func(keys []uint16) bool {
		s, _ := NewKVStore(8, 4096)
		// Insert distinct keys; collisions may evict, so track the
		// last writer per slot.
		type slotKey struct{ p, i int }
		lastWriter := map[slotKey]uint64{}
		for _, k := range keys {
			s.Put(uint64(k), uint64(k)*3)
			p, i := s.slot(uint64(k))
			lastWriter[slotKey{p, i}] = uint64(k)
		}
		for _, owner := range lastWriter {
			v, ok := s.Get(owner)
			if !ok || v != owner*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalSketchBitRatios(t *testing.T) {
	hs, err := NewHierarchicalSketch(8, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// A single dominant key: its bit ratios should be ~1 for set bits
	// and ~0 for clear bits.
	key := uint64(0b10110101)
	for i := 0; i < 1000; i++ {
		hs.Update(key)
	}
	ratios := hs.BitRatio(key)
	for b := 0; b < 8; b++ {
		want := 0.0
		if key&(1<<b) != 0 {
			want = 1.0
		}
		if ratios[b] < want-0.05 || ratios[b] > want+0.05 {
			t.Errorf("bit %d ratio = %.3f, want ~%.1f", b, ratios[b], want)
		}
	}
}

func TestHashIndependenceAcrossRows(t *testing.T) {
	// Two rows should disagree on placement for most keys.
	same := 0
	const n = 10000
	for k := uint64(0); k < n; k++ {
		if Hash(k, 0)%1024 == Hash(k, 1)%1024 {
			same++
		}
	}
	if same > n/100 { // expect ~n/1024
		t.Errorf("rows collide on %d/%d keys; hashes not independent", same, n)
	}
}

func TestCMSAddAndClone(t *testing.T) {
	cms, _ := NewCountMinSketch(3, 64)
	for i := 0; i < 10; i++ {
		cms.Update(7)
	}
	if est := cms.Add(7, 5); est != 15 {
		t.Errorf("Add returned %d, want 15", est)
	}
	cl := cms.Clone()
	if cl.Estimate(7) != 15 {
		t.Errorf("clone estimate = %d, want 15", cl.Estimate(7))
	}
	cl.Update(7)
	if cms.Estimate(7) != 15 {
		t.Errorf("clone shares state with original: %d", cms.Estimate(7))
	}
	// Saturation: Add never wraps.
	sat, _ := NewCountMinSketch(1, 4)
	sat.Add(3, ^uint32(0)-1)
	if est := sat.Add(3, 10); est != ^uint32(0) {
		t.Errorf("saturating Add = %d, want max", est)
	}
}

func TestKVStoreEntriesAndPutIfVacant(t *testing.T) {
	kv, _ := NewKVStore(2, 8)
	kv.Put(1, 100)
	kv.Put(2, 200)
	ents := kv.Entries()
	if len(ents) != 2 {
		t.Fatalf("Entries returned %d items, want 2", len(ents))
	}
	got := map[uint64]uint64{}
	for _, e := range ents {
		got[e.Key] = e.Val
	}
	if got[1] != 100 || got[2] != 200 {
		t.Errorf("Entries = %v", got)
	}
	// PutIfVacant refuses to evict a different key in the same slot.
	var collider uint64
	p0, i0 := kv.slot(1)
	for k := uint64(3); ; k++ {
		if p, i := kv.slot(k); p == p0 && i == i0 {
			collider = k
			break
		}
	}
	if kv.PutIfVacant(collider, 1) {
		t.Error("PutIfVacant evicted an existing key")
	}
	if v, ok := kv.Get(1); !ok || v != 100 {
		t.Errorf("existing entry disturbed: %v %v", v, ok)
	}
	// Same key may be refreshed; vacant slots accept.
	if !kv.PutIfVacant(1, 101) {
		t.Error("PutIfVacant refused to refresh the same key")
	}
}

func TestSeededCMSMatchesManualIndexing(t *testing.T) {
	// A seeded sketch's row r must index with Hash(key, seed+r): the
	// contract compiled pipelines rely on (NetCache's kv module hashes
	// from seed 16, SketchLearn level l from 8l).
	const seed = 16
	cms, err := NewCountMinSketchSeeded(2, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cms.Seed() != seed {
		t.Fatalf("Seed() = %d, want %d", cms.Seed(), seed)
	}
	cms.Update(42)
	for r := 0; r < 2; r++ {
		idx := Hash(42, seed+uint64(r)) % 64
		if got := cms.counts[r][idx]; got != 1 {
			t.Errorf("row %d: seeded cell %d = %d, want 1", r, idx, got)
		}
	}
	// Different seeds must hash to a different cell in at least one
	// row for some key, or seeding would be a no-op.
	other, _ := NewCountMinSketchSeeded(2, 64, 99)
	diverged := false
	for k := uint64(0); k < 32 && !diverged; k++ {
		for r := uint64(0); r < 2; r++ {
			if Hash(k, seed+r)%64 != Hash(k, 99+r)%64 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("seeds 16 and 99 index identically over 32 keys")
	}
	_ = other
}

func TestSeedZeroMatchesUnseeded(t *testing.T) {
	a, _ := NewCountMinSketch(3, 128)
	b, _ := NewCountMinSketchSeeded(3, 128, 0)
	for k := uint64(0); k < 200; k++ {
		ea, eb := a.Update(k%17), b.Update(k%17)
		if ea != eb {
			t.Fatalf("key %d: unseeded estimate %d != seed-0 estimate %d", k%17, ea, eb)
		}
	}
}

func TestCloneKeepsSeed(t *testing.T) {
	cms, _ := NewCountMinSketchSeeded(2, 32, 7)
	cms.Update(5)
	c := cms.Clone()
	if c.Seed() != 7 {
		t.Fatalf("clone dropped seed: %d", c.Seed())
	}
	if c.Estimate(5) != cms.Estimate(5) {
		t.Fatal("clone estimate diverged")
	}
}

// TestHashPinnedValues pins the row-hash contract. The simulator, the
// translation validator and these structures all index through Hash, so
// a changed value would move every compiled program's cells at once and
// no cross-layer oracle would notice.
func TestHashPinnedValues(t *testing.T) {
	for _, c := range []struct{ key, row, want uint64 }{
		{0, 0, 0xe220a8397b1dcdaf},
		{1, 0, 0x910a2dec89025cc1},
		{42, 3, 0x581ce1ff0e4ae394},
		{0xFFFFFFFFFFFFFFFF, 16, 0x6887829e84a5e267},
		{123456789, 977, 0x7c5c3928f5097418},
	} {
		if got := Hash(c.key, c.row); got != c.want {
			t.Errorf("Hash(%d, %d) = %#x, want %#x", c.key, c.row, got, c.want)
		}
	}
}
