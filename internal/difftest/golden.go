package difftest

import (
	"fmt"
	"math/rand"

	"p4all/internal/ilpgen"
	"p4all/internal/sim"
	"p4all/internal/structures"
)

// The golden models below re-derive each app's observable outputs from
// the reference internal/structures implementations plus the shared
// structures.Hash contract — independently of the compiler, the
// solver, and the simulator's expression evaluator. Any divergence is
// a bug in one of the two executions, not test noise: both sides are
// exact, not statistical.

const mask32 = 0xFFFFFFFF

// cmsGolden predicts one CMS module instance's @_meta.min output via a
// seeded reference sketch.
type cmsGolden struct {
	sketch *structures.CountMinSketch
	out    string // predicted field, e.g. "cms_meta.min"
}

func newCMSGolden(l *ilpgen.Layout, prefix string, seed uint64) (*cmsGolden, error) {
	rows := int(l.Symbolic(prefix + "_rows"))
	cols := int(l.Symbolic(prefix + "_cols"))
	s, err := structures.NewCountMinSketchSeeded(rows, cols, seed)
	if err != nil {
		return nil, fmt.Errorf("difftest: %s golden: %w", prefix, err)
	}
	return &cmsGolden{sketch: s, out: prefix + "_meta.min"}, nil
}

func (g *cmsGolden) update(key uint64) uint64 { return uint64(g.sketch.Update(key)) }

// netcacheGolden checks NetCache: the popularity sketch against a
// seeded reference CMS, and the key-value read path against a
// reference structures.KVStore whose contents are mirrored into the
// pipeline's kv_store registers before replay. The module's read sums
// one word per partition, so the predicted value is the key's own slot
// plus collision noise from the other partitions — all derivable from
// the store's entries and the shared hash.
type netcacheGolden struct {
	cms          *cmsGolden
	dense        [][]uint64
	parts, slots int
}

func newNetCacheGolden(l *ilpgen.Layout, seed int64) (Golden, error) {
	cms, err := newCMSGolden(l, "cms", 0)
	if err != nil {
		return nil, err
	}
	parts := int(l.Symbolic("kv_parts"))
	slots := int(l.Symbolic("kv_slots"))
	kv, err := structures.NewKVStore(parts, slots)
	if err != nil {
		return nil, fmt.Errorf("difftest: kv golden: %w", err)
	}
	// Pre-populate the reference store with a deterministic hot set;
	// Put evicts on collision exactly like the controller would.
	rng := rand.New(rand.NewSource(seed ^ 0x6b7673746f7265))
	for i := 0; i < 256; i++ {
		kv.Put(uint64(rng.Intn(keySpace)), uint64(rng.Uint32()))
	}
	g := &netcacheGolden{cms: cms, parts: parts, slots: slots}
	g.dense = make([][]uint64, parts)
	for p := range g.dense {
		g.dense[p] = make([]uint64, slots)
	}
	for _, e := range kv.Entries() {
		p := structures.Hash(e.Key, 977) % uint64(parts)
		i := structures.Hash(e.Key, uint64(16+p)) % uint64(slots)
		g.dense[p][i] = e.Val
	}
	return g, nil
}

func (g *netcacheGolden) SeedRegisters(pipe *sim.Pipeline) error {
	for p := range g.dense {
		store, ok := pipe.Register("kv_store", p)
		if !ok {
			return fmt.Errorf("difftest: pipeline has no kv_store/%d", p)
		}
		if len(store) != g.slots {
			return fmt.Errorf("difftest: kv_store/%d has %d cells, layout says %d", p, len(store), g.slots)
		}
		copy(store, g.dense[p])
	}
	return nil
}

func (g *netcacheGolden) Process(pkt sim.Packet) map[string]uint64 {
	key, _ := pkt.Get("query.key")
	key &= mask32
	var val uint64
	for p := 0; p < g.parts; p++ {
		idx := structures.Hash(key, uint64(16+p)) % uint64(g.slots)
		val = (val + g.dense[p][idx]) & mask32
	}
	return map[string]uint64{
		g.cms.out: g.cms.update(key),
		// The store is read-only in the data plane and the fwd table
		// has no entries, so hit/port stay zero.
		"kv_meta.value":     val,
		"nc_meta.cache_hit": 0,
		"nc_meta.port":      0,
	}
}

func (g *netcacheGolden) Checks() []string {
	return []string{g.cms.out, "kv_meta.value", "nc_meta.cache_hit", "nc_meta.port"}
}

// sketchlearnGolden checks SketchLearn's four independently seeded
// sketch levels.
type sketchlearnGolden struct {
	levels []*cmsGolden
}

func newSketchLearnGolden(l *ilpgen.Layout, _ int64) (Golden, error) {
	g := &sketchlearnGolden{}
	for lv := 0; lv < 4; lv++ {
		c, err := newCMSGolden(l, fmt.Sprintf("lv%d", lv), uint64(lv*8))
		if err != nil {
			return nil, err
		}
		g.levels = append(g.levels, c)
	}
	return g, nil
}

func (g *sketchlearnGolden) SeedRegisters(*sim.Pipeline) error { return nil }

func (g *sketchlearnGolden) Process(pkt sim.Packet) map[string]uint64 {
	key, _ := pkt.Get("pkt.flow")
	key &= mask32
	out := make(map[string]uint64, len(g.levels))
	for _, lv := range g.levels {
		out[lv.out] = lv.update(key)
	}
	return out
}

func (g *sketchlearnGolden) Checks() []string {
	out := make([]string, len(g.levels))
	for i, lv := range g.levels {
		out[i] = lv.out
	}
	return out
}

// precisionGolden checks Precision's probe table and recirculation
// decision. The hh module's probe stage i unconditionally increments
// vals[i][hash(key, i) % slots] — behaviorally a 1-row CMS per stage —
// and hh_meta.matched accumulates the per-stage counters into a bit<8>
// field, wrapping mod 256. The golden model replicates the wrap: it
// predicts what the hardware computes, it does not "fix" the program.
type precisionGolden struct {
	stages []*structures.CountMinSketch
	slots  int
}

func newPrecisionGolden(l *ilpgen.Layout, _ int64) (Golden, error) {
	stages := int(l.Symbolic("hh_stages"))
	slots := int(l.Symbolic("hh_slots"))
	g := &precisionGolden{slots: slots}
	for i := 0; i < stages; i++ {
		s, err := structures.NewCountMinSketchSeeded(1, slots, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("difftest: hh golden: %w", err)
		}
		g.stages = append(g.stages, s)
	}
	return g, nil
}

func (g *precisionGolden) SeedRegisters(*sim.Pipeline) error { return nil }

func (g *precisionGolden) Process(pkt sim.Packet) map[string]uint64 {
	key, _ := pkt.Get("pkt.flow")
	key &= mask32
	var sum uint64
	for _, st := range g.stages {
		sum += uint64(st.Update(key))
	}
	matched := sum % 256
	out := map[string]uint64{
		"hh_meta.matched":     matched,
		"pr_meta.recirculate": 0,
		"pr_meta.sample":      0,
	}
	if matched == 0 {
		out["pr_meta.recirculate"] = 1
		out["pr_meta.sample"] = structures.Hash(key, 101) % 256
	}
	return out
}

func (g *precisionGolden) Checks() []string {
	return []string{"hh_meta.matched", "pr_meta.recirculate", "pr_meta.sample"}
}

// conquestGolden checks ConQuest's three snapshot sketches and their
// combined estimate (a bit<32> sum of the per-snapshot minima).
type conquestGolden struct {
	snaps []*cmsGolden
}

func newConQuestGolden(l *ilpgen.Layout, _ int64) (Golden, error) {
	g := &conquestGolden{}
	for q := 0; q < 3; q++ {
		c, err := newCMSGolden(l, fmt.Sprintf("snap%d", q), uint64(q*8))
		if err != nil {
			return nil, err
		}
		g.snaps = append(g.snaps, c)
	}
	return g, nil
}

func (g *conquestGolden) SeedRegisters(*sim.Pipeline) error { return nil }

func (g *conquestGolden) Process(pkt sim.Packet) map[string]uint64 {
	key, _ := pkt.Get("pkt.flow")
	key &= mask32
	out := make(map[string]uint64, len(g.snaps)+1)
	var est uint64
	for _, s := range g.snaps {
		m := s.update(key)
		out[s.out] = m
		est = (est + m) & mask32
	}
	out["cq_meta.estimate"] = est
	return out
}

func (g *conquestGolden) Checks() []string {
	out := make([]string, 0, len(g.snaps)+1)
	for _, s := range g.snaps {
		out = append(out, s.out)
	}
	return append(out, "cq_meta.estimate")
}
