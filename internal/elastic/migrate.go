package elastic

import (
	"fmt"
	"sort"

	"p4all/internal/ilpgen"
	"p4all/internal/structures"
)

// Plane is one concrete NetCache data plane: the shapes a layout
// assigned plus the behavioral structures carrying live state.
type Plane struct {
	Layout *ilpgen.Layout
	CMS    *structures.CountMinSketch
	KV     *structures.KVStore
}

// NewPlane allocates empty structures for a layout's NetCache shapes.
func NewPlane(l *ilpgen.Layout) (*Plane, error) {
	cms, err := structures.NewCountMinSketch(int(l.Symbolic("cms_rows")), int(l.Symbolic("cms_cols")))
	if err != nil {
		return nil, fmt.Errorf("elastic: layout CMS shape: %w", err)
	}
	kv, err := structures.NewKVStore(int(l.Symbolic("kv_parts")), int(l.Symbolic("kv_slots")))
	if err != nil {
		return nil, fmt.Errorf("elastic: layout KV shape: %w", err)
	}
	return &Plane{Layout: l, CMS: cms, KV: kv}, nil
}

// ServeGet answers one GET by NetCache's admission rule: a hit returns
// the cached value; a miss returns the backend's value and counts the key
// in the sketch, caching it once its estimate reaches threshold. Every
// NetCache data plane — the server's shards, the drift experiment's and
// Figure 4's — serves through here.
func (p *Plane) ServeGet(key uint64, threshold uint32) (val uint64, hit, admitted bool) {
	if v, ok := p.KV.Get(key); ok {
		return v, true, false
	}
	val = backendVal(key)
	if p.CMS.Update(key) >= threshold {
		p.KV.Put(key, val)
		admitted = true
	}
	return val, false, admitted
}

// backendVal is the deterministic "backend fetch" for a missed key.
func backendVal(key uint64) uint64 { return key * 3 }

// SymbolicChange records one symbolic whose value differs between two
// layouts.
type SymbolicChange struct {
	Name     string
	From, To int64
}

// Diff summarizes what changed between an incumbent layout and its
// replacement — the controller's migration plan and the obs record of
// an adoption.
type Diff struct {
	// Changed lists symbolics whose solved values differ, sorted by
	// name.
	Changed []SymbolicChange
	// MovedRegisters counts register instances whose stage set or cell
	// count changed.
	MovedRegisters int
	// MovedActions counts action placements whose stage changed.
	MovedActions int
}

// Same reports that the two layouts are identical in every respect the
// data plane can observe.
func (d Diff) Same() bool {
	return len(d.Changed) == 0 && d.MovedRegisters == 0 && d.MovedActions == 0
}

func (d Diff) String() string {
	if d.Same() {
		return "no change"
	}
	s := ""
	for i, c := range d.Changed {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d→%d", c.Name, c.From, c.To)
	}
	return fmt.Sprintf("{%s; %d registers moved, %d actions moved}", s, d.MovedRegisters, d.MovedActions)
}

// DiffLayouts compares two layouts of the same program.
func DiffLayouts(old, new *ilpgen.Layout) Diff {
	var d Diff
	names := make([]string, 0, len(old.Symbolics))
	for name := range old.Symbolics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if old.Symbolics[name] != new.Symbolics[name] {
			d.Changed = append(d.Changed, SymbolicChange{Name: name, From: old.Symbolics[name], To: new.Symbolics[name]})
		}
	}
	type regKey struct {
		name  string
		index int
	}
	type regShape struct {
		cells  int64
		stages string
	}
	shape := func(rp ilpgen.RegPlacement) regShape {
		return regShape{cells: rp.Cells, stages: fmt.Sprint(rp.Stages)}
	}
	oldRegs := make(map[regKey]regShape, len(old.Registers))
	for _, rp := range old.Registers {
		oldRegs[regKey{rp.Register, rp.Index}] = shape(rp)
	}
	seen := make(map[regKey]bool, len(new.Registers))
	for _, rp := range new.Registers {
		k := regKey{rp.Register, rp.Index}
		seen[k] = true
		if prev, ok := oldRegs[k]; !ok || prev != shape(rp) {
			d.MovedRegisters++
		}
	}
	for k := range oldRegs {
		if !seen[k] {
			d.MovedRegisters++
		}
	}
	oldActs := make(map[string]int, len(old.Placements))
	for _, pl := range old.Placements {
		oldActs[pl.Name] = pl.Stage
	}
	seenActs := make(map[string]bool, len(new.Placements))
	for _, pl := range new.Placements {
		seenActs[pl.Name] = true
		if st, ok := oldActs[pl.Name]; !ok || st != pl.Stage {
			d.MovedActions++
		}
	}
	for name := range oldActs {
		if !seenActs[name] {
			d.MovedActions++
		}
	}
	return d
}

// MigrateCMS carries sketch state into a new shape. Same shape is a
// lossless deep copy. A re-shaped sketch cannot keep raw cells (every
// row re-hashes), so the known hot keys are re-admitted with their
// carried estimates instead. The result never under-counts relative
// to a fresh sketch: it starts pointwise ≥ zero and both only
// increment, so after any shared suffix of updates every estimate is
// ≥ the fresh sketch's.
func MigrateCMS(old *structures.CountMinSketch, rows, cols int, hot []KeyCount) (*structures.CountMinSketch, error) {
	if old != nil && old.Rows() == rows && old.Cols() == cols {
		return old.Clone(), nil
	}
	if old == nil {
		return structures.NewCountMinSketch(rows, cols)
	}
	// Keep the old sketch's hash seed: a re-shaped sketch that silently
	// reverted to seed 0 would count in a different hash family than
	// the pipeline it mirrors (the same-shape Clone path above already
	// preserves it).
	fresh, err := structures.NewCountMinSketchSeeded(rows, cols, old.Seed())
	if err != nil {
		return nil, err
	}
	for _, kc := range hot {
		if est := old.Estimate(kc.Key); est > 0 {
			fresh.Add(kc.Key, est)
		}
	}
	return fresh, nil
}

// MigrateKVS re-admits a store's entries into a new shape in
// popularity-rank order, hottest first, via PutIfVacant — contested
// slots go to hot keys and colder colliders are dropped rather than
// evicting. rank maps key→popularity (higher is hotter; unknown keys
// rank 0 and sort last, tie-broken by key for determinism). Returns
// the new store and how many entries were dropped; a same-shape
// migration drops nothing, since every entry re-lands in the slot it
// already owned.
func MigrateKVS(old *structures.KVStore, parts, slots int, rank func(key uint64) uint64) (*structures.KVStore, int, error) {
	fresh, err := structures.NewKVStore(parts, slots)
	if err != nil {
		return nil, 0, err
	}
	if old == nil {
		return fresh, 0, nil
	}
	entries := old.Entries()
	if rank == nil {
		rank = func(uint64) uint64 { return 0 }
	}
	sort.SliceStable(entries, func(i, j int) bool {
		ri, rj := rank(entries[i].Key), rank(entries[j].Key)
		if ri != rj {
			return ri > rj
		}
		return entries[i].Key < entries[j].Key
	})
	dropped := 0
	for _, e := range entries {
		if !fresh.PutIfVacant(e.Key, e.Val) {
			dropped++
		}
	}
	return fresh, dropped, nil
}

// MigrateShards migrates a sharded plane set to a new layout: each
// shard's plane goes through Migrate with only the hot keys that shard
// owns (route maps a key to its owning shard), so a shard never
// re-admits counts for traffic it did not serve. Returns the new plane
// set and the total KV entries dropped to collisions across shards.
//
// The old planes are read during migration, so the caller must have
// quiesced the shards first (internal/serve runs this inside
// Runtime.Quiesce and publishes the result there).
func MigrateShards(old []*Plane, l *ilpgen.Layout, hot []KeyCount, route func(key uint64) int) ([]*Plane, int, error) {
	if route == nil {
		route = func(uint64) int { return 0 }
	}
	perShard := make([][]KeyCount, len(old))
	for _, kc := range hot {
		s := route(kc.Key)
		if s < 0 || s >= len(old) {
			return nil, 0, fmt.Errorf("elastic: hot key %d routes to shard %d of %d", kc.Key, s, len(old))
		}
		perShard[s] = append(perShard[s], kc)
	}
	planes := make([]*Plane, len(old))
	dropped := 0
	for i, op := range old {
		p, d, err := Migrate(op, l, perShard[i])
		if err != nil {
			return nil, 0, fmt.Errorf("elastic: shard %d: %w", i, err)
		}
		planes[i] = p
		dropped += d
	}
	return planes, dropped, nil
}

// Migrate builds a plane for the new layout carrying the old plane's
// state: CMS via MigrateCMS with the window's hot keys, KV via
// MigrateKVS ranked by the same hot-key counts. Returns the plane and
// the number of KV entries dropped to collisions.
func Migrate(old *Plane, l *ilpgen.Layout, hot []KeyCount) (*Plane, int, error) {
	ranks := make(map[uint64]uint64, len(hot))
	for _, kc := range hot {
		ranks[kc.Key] = kc.Count
	}
	cms, err := MigrateCMS(old.CMS, int(l.Symbolic("cms_rows")), int(l.Symbolic("cms_cols")), hot)
	if err != nil {
		return nil, 0, fmt.Errorf("elastic: CMS migration: %w", err)
	}
	kv, dropped, err := MigrateKVS(old.KV, int(l.Symbolic("kv_parts")), int(l.Symbolic("kv_slots")),
		func(k uint64) uint64 { return ranks[k] })
	if err != nil {
		return nil, 0, fmt.Errorf("elastic: KV migration: %w", err)
	}
	return &Plane{Layout: l, CMS: cms, KV: kv}, dropped, nil
}
