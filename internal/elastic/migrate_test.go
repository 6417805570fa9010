package elastic

import (
	"testing"

	"p4all/internal/ilpgen"
	"p4all/internal/structures"
	"p4all/internal/workload"
)

// TestMigrateCMSGrowNeverUnderestimates is the migration acceptance
// invariant: after a grow-migration, the carried sketch must never
// report a smaller estimate than a fresh sketch fed the same suffix —
// history can only add counts, never subtract them.
func TestMigrateCMSGrowNeverUnderestimates(t *testing.T) {
	old, err := structures.NewCountMinSketch(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	prefix := workload.ZipfKeys(9, 20000, 1.1, 30000)
	for _, k := range prefix {
		old.Update(k)
	}
	hot := Summarize(prefix, 0, 64, 256).HotKeys

	migrated, err := MigrateCMS(old, 3, 1024, hot)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := structures.NewCountMinSketch(3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	suffix := workload.ZipfKeys(10, 20000, 1.1, 30000)
	for _, k := range suffix {
		migrated.Update(k)
		fresh.Update(k)
	}
	for _, k := range suffix {
		if m, f := migrated.Estimate(k), fresh.Estimate(k); m < f {
			t.Fatalf("key %d: migrated estimate %d below fresh %d", k, m, f)
		}
	}
	// The carried hot keys must keep at least their old estimates.
	for _, kc := range hot {
		if got, want := migrated.Estimate(kc.Key), old.Estimate(kc.Key); got < want {
			t.Fatalf("hot key %d: migrated estimate %d lost carried count %d", kc.Key, got, want)
		}
	}
}

func TestMigrateCMSSameShapeLossless(t *testing.T) {
	old, _ := structures.NewCountMinSketch(4, 512)
	keys := workload.ZipfKeys(4, 5000, 1.0, 10000)
	for _, k := range keys {
		old.Update(k)
	}
	m, err := MigrateCMS(old, 4, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if m.Estimate(k) != old.Estimate(k) {
			t.Fatalf("same-shape migration changed estimate of key %d", k)
		}
	}
	// And it is a copy, not an alias.
	m.Update(keys[0])
	if m.Estimate(keys[0]) == old.Estimate(keys[0]) {
		t.Fatal("same-shape migration aliased the old sketch")
	}
}

func TestMigrateKVSSameShapeLossless(t *testing.T) {
	old, _ := structures.NewKVStore(4, 256)
	keys := workload.ZipfKeys(6, 3000, 1.0, 5000)
	for _, k := range keys {
		old.Put(k, k*3)
	}
	fresh, dropped, err := MigrateKVS(old, 4, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("same-shape migration dropped %d entries", dropped)
	}
	for _, e := range old.Entries() {
		if v, ok := fresh.Get(e.Key); !ok || v != e.Val {
			t.Fatalf("entry %d lost in same-shape migration", e.Key)
		}
	}
}

// TestMigrateKVSHotKeysWinContestedSlots shrinks the store so entries
// collide, and checks the popularity ranking decides who survives.
func TestMigrateKVSHotKeysWinContestedSlots(t *testing.T) {
	old, _ := structures.NewKVStore(4, 64)
	// Find two keys that collide in the small target shape (1x16) but
	// occupy distinct slots in the source shape. Each candidate is
	// probed against a store holding only key 1, so a failed
	// PutIfVacant means a true collision with key 1's slot.
	var k1, k2 uint64
	for k := uint64(2); ; k++ {
		probe, _ := structures.NewKVStore(1, 16)
		probe.Put(1, 0)
		if !probe.PutIfVacant(k, 0) {
			k1, k2 = 1, k
			break
		}
	}
	old.Put(k1, 100)
	old.Put(k2, 200)
	if _, ok := old.Get(k1); !ok {
		t.Fatal("k1 lost in source store")
	}
	if _, ok := old.Get(k2); !ok {
		t.Skip("probe keys collide in the source shape too")
	}

	rank := func(k uint64) uint64 {
		if k == k2 {
			return 10 // k2 is the hot one
		}
		return 1
	}
	fresh, dropped, err := MigrateKVS(old, 1, 16, rank)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get(k2); !ok || v != 200 {
		t.Fatalf("hot key %d did not win its slot (present=%v val=%d)", k2, ok, v)
	}
	if _, ok := fresh.Get(k1); ok {
		t.Fatalf("cold collider %d evicted the hot key's claim", k1)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestDiffLayouts(t *testing.T) {
	old := &ilpgen.Layout{
		Symbolics: map[string]int64{"cms_rows": 4, "cms_cols": 3072, "kv_slots": 3072},
		Registers: []ilpgen.RegPlacement{
			{Register: "cms", Index: 0, Cells: 3072, Stages: []int{1}},
			{Register: "kv", Index: 0, Cells: 3072, Stages: []int{2}},
		},
		Placements: []ilpgen.Placement{{Name: "incr[0]", Stage: 1}},
	}
	new_ := &ilpgen.Layout{
		Symbolics: map[string]int64{"cms_rows": 3, "cms_cols": 1024, "kv_slots": 12288},
		Registers: []ilpgen.RegPlacement{
			{Register: "cms", Index: 0, Cells: 1024, Stages: []int{1}},
			{Register: "kv", Index: 0, Cells: 12288, Stages: []int{3}},
		},
		Placements: []ilpgen.Placement{{Name: "incr[0]", Stage: 2}},
	}
	d := DiffLayouts(old, new_)
	if d.Same() {
		t.Fatal("diff of different layouts reported Same")
	}
	if len(d.Changed) != 3 {
		t.Fatalf("changed symbolics = %v, want 3", d.Changed)
	}
	if d.MovedRegisters != 2 || d.MovedActions != 1 {
		t.Fatalf("moved registers=%d actions=%d, want 2 and 1", d.MovedRegisters, d.MovedActions)
	}
	if !DiffLayouts(old, old).Same() {
		t.Fatal("self-diff not Same")
	}
}

// TestMigrateCMSPreservesSeed is the regression test for the seed-drop
// bug: re-shaping a seeded sketch used to allocate the replacement
// with seed 0, silently switching hash families mid-migration (the
// same-shape Clone path kept the seed, making the two paths disagree).
func TestMigrateCMSPreservesSeed(t *testing.T) {
	old, err := structures.NewCountMinSketchSeeded(4, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.ZipfKeys(6, 5000, 1.1, 8000)
	for _, k := range keys {
		old.Update(k)
	}
	hot := Summarize(keys, 0, 64, 256).HotKeys

	m, err := MigrateCMS(old, 3, 1024, hot)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed() != old.Seed() {
		t.Fatalf("re-shape dropped seed: got %d, want %d", m.Seed(), old.Seed())
	}
	// With the seed preserved, the migrated sketch must still dominate
	// a fresh same-seed sketch over a shared suffix.
	fresh, err := structures.NewCountMinSketchSeeded(3, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	suffix := workload.ZipfKeys(7, 5000, 1.1, 8000)
	for _, k := range suffix {
		m.Update(k)
		fresh.Update(k)
	}
	for _, k := range suffix {
		if m.Estimate(k) < fresh.Estimate(k) {
			t.Fatalf("key %d: migrated estimate %d below fresh %d", k, m.Estimate(k), fresh.Estimate(k))
		}
	}
}

func TestMigrateShardsFiltersHotKeysByOwner(t *testing.T) {
	l := &ilpgen.Layout{Symbolics: map[string]int64{
		"cms_rows": 2, "cms_cols": 32, "kv_parts": 1, "kv_slots": 64,
	}}
	old := make([]*Plane, 2)
	for i := range old {
		p, err := NewPlane(l)
		if err != nil {
			t.Fatal(err)
		}
		old[i] = p
	}
	route := func(k uint64) int { return int(k % 2) }
	// Populate each shard only with the keys it owns, as the runtime
	// would.
	for k := uint64(0); k < 20; k++ {
		s := route(k)
		old[s].CMS.Add(k, uint32(k+1))
		old[s].KV.Put(k, k*3)
	}
	hot := make([]KeyCount, 0, 20)
	for k := uint64(0); k < 20; k++ {
		hot = append(hot, KeyCount{Key: k, Count: k + 1})
	}
	// Re-shape the CMS so migration takes the hot-key re-admission path.
	l2 := &ilpgen.Layout{Symbolics: map[string]int64{
		"cms_rows": 2, "cms_cols": 64, "kv_parts": 1, "kv_slots": 64,
	}}
	planes, dropped, err := MigrateShards(old, l2, hot, route)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d KV entries into a same-shape store", dropped)
	}
	if len(planes) != 2 {
		t.Fatalf("got %d planes, want 2", len(planes))
	}
	for k := uint64(0); k < 20; k++ {
		s := route(k)
		// The owning shard carries the key's state (Put can evict
		// colliders, so only keys still in the old store must survive);
		// the other shard must not have absorbed it.
		if _, had := old[s].KV.Get(k); had {
			if v, ok := planes[s].KV.Get(k); !ok || v != k*3 {
				t.Fatalf("shard %d lost key %d after migration", s, k)
			}
		}
		if _, ok := planes[1-s].KV.Get(k); ok {
			t.Fatalf("key %d leaked into shard %d during migration", k, 1-s)
		}
		if est := planes[s].CMS.Estimate(k); est < uint32(k+1) {
			t.Fatalf("shard %d CMS underestimates key %d after migration: %d < %d", s, k, est, k+1)
		}
		if est := planes[1-s].CMS.Estimate(k); est > 0 && est >= uint32(k+1) && k > 4 {
			// Cross-shard hash collisions can produce small nonzero
			// estimates, but a full carried count means the filter failed.
			t.Fatalf("shard %d absorbed key %d's carried count", 1-s, k)
		}
	}
	// Route pointing outside the shard range is rejected.
	if _, _, err := MigrateShards(old, l2, hot, func(uint64) int { return 7 }); err == nil {
		t.Fatal("MigrateShards accepted an out-of-range route")
	}
}

// TestServeGetAdmission pins NetCache's admission rule: a miss returns
// the backend value and caches the key only once its sketch estimate
// reaches the threshold; a hit returns the cached value.
func TestServeGetAdmission(t *testing.T) {
	cms, _ := structures.NewCountMinSketch(2, 64)
	kv, _ := structures.NewKVStore(1, 64)
	p := &Plane{CMS: cms, KV: kv}
	for i, want := range []struct{ hit, admitted bool }{{false, false}, {false, true}, {true, false}} {
		val, hit, admitted := p.ServeGet(7, 2)
		if val != 21 || hit != want.hit || admitted != want.admitted {
			t.Errorf("GET %d: val=%d hit=%v admitted=%v, want 21 %v %v", i, val, hit, admitted, want.hit, want.admitted)
		}
	}
}
