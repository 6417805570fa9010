// Package apps provides the four benchmark applications of the paper's
// §6.1 (Figure 11) as P4All programs composed from the elastic module
// library: NetCache, SketchLearn, Precision, and ConQuest. Each is the
// data-plane portion of the published system, rebuilt from the paper's
// description (the original P4 sources are not public).
package apps

import (
	"fmt"

	"p4all/internal/modules"
)

// App couples a name with its P4All source.
type App struct {
	Name   string
	Source string
}

// NetCacheConfig tunes the NetCache instantiation. The program optimizes
// the paper's §3.2.4 utility, 0.4*(rows*cols) + 0.6*(kv_items); compile
// it as a multitenant.Tenant with a Utility to optimize another.
type NetCacheConfig struct {
	// KVFloorItems, when positive, adds the paper's Figure 13 assume
	// that reserves a minimum number of key-value items (the NetCache
	// paper recommends 8 Mb of store).
	KVFloorItems int64
}

// NetCache builds the elastic NetCache program (§3.2): an elastic
// count-min sketch tracking key popularity plus an elastic partitioned
// key-value store serving hot keys, with an inelastic forwarding table.
// Values are 32-bit handles into the controller's value memory — the
// on-switch structure the utility function trades against the sketch.
// The sketch is at most four rows deep: the paper's §3.2.1 observes
// that more hash functions give diminishing returns.
func NetCache(cfg NetCacheConfig) App {
	floor := ""
	if cfg.KVFloorItems > 0 {
		floor = fmt.Sprintf("assume kv_parts * kv_slots >= %d;\n", cfg.KVFloorItems)
	}
	src := modules.Compose(`
// NetCache (Jin et al., SOSP'17): in-network key-value cache.
header query {
    bit<32> key;
    bit<8> op;
}

header ipv4 {
    bit<32> dst;
}
`,
		modules.CountMinSketch(modules.Instance{Prefix: "cms", Key: "query.key"}),
		modules.KeyValueStore(modules.Instance{Prefix: "kv", Key: "query.key", Seed: 16}),
		fmt.Sprintf(`
struct nc_meta {
    bit<9> port;
    bit<8> cache_hit;
}

action set_port() {
    nc_meta.port = 1;
}

action drop_pkt() {
    nc_meta.port = 0;
}

table fwd {
    key = { ipv4.dst; }
    actions = { set_port; drop_pkt; }
    size = 1024;
}

action mark_hit() {
    nc_meta.cache_hit = kv_meta.hit;
}

control main {
    apply {
        cms_update.apply();
        kv_read.apply();
        mark_hit();
        fwd.apply();
    }
}

assume cms_rows >= 2 && cms_rows <= 4;
assume cms_cols >= 1024;
assume kv_parts >= 1;
assume kv_slots >= 1024;
%s
optimize 0.4 * (cms_rows * cms_cols) + 0.6 * (kv_parts * kv_slots);
`, floor))
	return App{Name: "NetCache", Source: src}
}

// SketchLearn builds the SketchLearn program (Huang et al.,
// SIGCOMM'18): a multi-level sketch inferring flow statistics. Per the
// paper's §6.1 it composes multiple count-min sketch instances — one
// per inferred bit level — sharing one depth budget through a common
// utility.
func SketchLearn() App {
	const levels = 4
	frags := []string{`
// SketchLearn (Huang et al., SIGCOMM'18): multi-level sketch.
header pkt {
    bit<32> flow;
    bit<32> len;
}
`}
	util := ""
	for l := 0; l < levels; l++ {
		frags = append(frags, modules.CountMinSketch(modules.Instance{
			Prefix: fmt.Sprintf("lv%d", l),
			Key:    "pkt.flow",
			Seed:   l * 8,
		}))
		if l > 0 {
			util += " + "
		}
		util += fmt.Sprintf("lv%d_rows * lv%d_cols", l, l)
	}
	apply := ""
	assumes := ""
	for l := 0; l < levels; l++ {
		apply += fmt.Sprintf("        lv%d_update.apply();\n", l)
		assumes += fmt.Sprintf("assume lv%d_rows >= 1 && lv%d_rows <= 2;\nassume lv%d_cols >= 512;\n", l, l, l)
	}
	frags = append(frags, fmt.Sprintf(`
control main {
    apply {
%s    }
}

%s
optimize %s;
`, apply, assumes, util))
	return App{Name: "SketchLearn", Source: modules.Compose(frags...)}
}

// Precision builds the Precision program (Ben Basat et al.): heavy-
// hitter detection with a multi-stage probabilistic hash table plus a
// recirculation decision.
func Precision() App {
	src := modules.Compose(`
// Precision (Ben Basat et al., ICNP'18): probabilistic heavy hitters.
header pkt {
    bit<32> flow;
    bit<16> len;
}
`,
		modules.HashTable(modules.Instance{Prefix: "hh", Key: "pkt.flow"}),
		`
struct pr_meta {
    bit<8> recirculate;
    bit<32> sample;
}

action decide_recirc() {
    pr_meta.sample = hash(pkt.flow, 101) % 256;
    pr_meta.recirculate = 1;
}

control main {
    apply {
        hh_run.apply();
        if (hh_meta.matched == 0) {
            decide_recirc();
        }
    }
}

assume hh_stages >= 2 && hh_stages <= 6;
assume hh_slots >= 512;

optimize hh_stages * hh_slots;
`)
	return App{Name: "Precision", Source: src}
}

// ConQuest builds the ConQuest program (Chen et al., CoNEXT'19):
// queue-length estimation with a round-robin ring of count-min sketch
// snapshots.
func ConQuest() App {
	const snapshots = 3
	frags := []string{`
// ConQuest (Chen et al., CoNEXT'19): in-network queue analysis with
// round-robin sketch snapshots.
header pkt {
    bit<32> flow;
    bit<32> qdepth;
}
`}
	util := ""
	apply := ""
	assumes := ""
	for q := 0; q < snapshots; q++ {
		frags = append(frags, modules.CountMinSketch(modules.Instance{
			Prefix: fmt.Sprintf("snap%d", q),
			Key:    "pkt.flow",
			Seed:   q * 8,
		}))
		if q > 0 {
			util += " + "
		}
		util += fmt.Sprintf("snap%d_rows * snap%d_cols", q, q)
		apply += fmt.Sprintf("        snap%d_update.apply();\n", q)
		assumes += fmt.Sprintf("assume snap%d_rows >= 1 && snap%d_rows <= 2;\nassume snap%d_cols >= 256;\n", q, q, q)
	}
	frags = append(frags, fmt.Sprintf(`
struct cq_meta {
    bit<32> estimate;
}

action combine() {
    cq_meta.estimate = snap0_meta.min + snap1_meta.min + snap2_meta.min;
}

control main {
    apply {
%s        combine();
    }
}

%s
optimize %s;
`, apply, assumes, util))
	return App{Name: "ConQuest", Source: modules.Compose(frags...)}
}

// FlowRadar builds the FlowRadar program (Li et al., NSDI'16): per-flow
// traffic accounting with a Bloom filter screening new flows in front
// of an encoded-flowset counting table. It is the library's fifth
// module consumer and the "new tenant" of the multi-tenant evaluation:
// a program none of the Figure 11 suite contains, sharing the pipeline
// with NetCache and SketchLearn in the joint-compilation tests.
func FlowRadar() App {
	src := modules.Compose(`
// FlowRadar (Li et al., NSDI'16): encoded per-flow counters.
header pkt {
    bit<32> flow;
    bit<16> len;
}
`,
		modules.BloomFilter(modules.Instance{Prefix: "fr_bf", Key: "pkt.flow"}),
		modules.CountingTable(modules.Instance{Prefix: "fr_ct", Key: "pkt.flow", Seed: 32}),
		`
struct frd_meta {
    bit<8> is_new;
}

action note_new() {
    frd_meta.is_new = 1;
}

control main {
    apply {
        fr_bf_check.apply();
        if (fr_bf_meta.hits < fr_bf_rows) {
            note_new();
        }
        fr_ct_record.apply();
    }
}

assume fr_bf_rows >= 1 && fr_bf_rows <= 3;
assume fr_bf_bits >= 1024;
assume fr_ct_rows >= 1 && fr_ct_rows <= 3;
assume fr_ct_cells >= 256;

optimize 0.3 * (fr_bf_rows * fr_bf_bits) + 0.7 * (fr_ct_rows * fr_ct_cells);
`)
	return App{Name: "FlowRadar", Source: src}
}

// All returns the Figure 11 application suite.
func All() []App {
	return []App{
		NetCache(NetCacheConfig{}),
		SketchLearn(),
		Precision(),
		ConQuest(),
	}
}

// HashPipe builds a fifth application beyond the paper's Figure 11
// suite: HashPipe (Sivaraman et al., SOSR'17), heavy-hitter detection
// with a pipeline of hash tables — another Figure 1 consumer of the
// hash-table module, included to show the library generalizes past the
// paper's own benchmarks.
func HashPipe() App {
	src := modules.Compose(`
// HashPipe (Sivaraman et al., SOSR'17): heavy hitters in the data plane.
header pkt {
    bit<32> flow;
    bit<16> len;
}
`,
		modules.HashTable(modules.Instance{Prefix: "hp", Key: "pkt.flow"}),
		`
struct hpc_meta {
    bit<32> carried;
}

action pick_min() {
    hpc_meta.carried = min(hpc_meta.carried, hp_meta.matched);
}

control main {
    apply {
        hp_run.apply();
        pick_min();
    }
}

assume hp_stages >= 2 && hp_stages <= 6;
assume hp_slots >= 256;

optimize hp_stages * hp_slots;
`)
	return App{Name: "HashPipe", Source: src}
}
