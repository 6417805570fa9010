// Package modules is the reusable elastic-module library of the
// paper's §6.1: count-min sketch, Bloom filter, key-value store, and
// hash table, each written once as an elastic P4All fragment and
// instantiable under any name prefix. Applications compose fragments
// into one program and add a utility function; the compiler stretches
// every instance to the target (the reuse story of Figure 1).
package modules

import (
	"fmt"
	"strings"
)

// Instance parameterizes one module instantiation.
type Instance struct {
	// Prefix namespaces every symbol the module declares (symbolics,
	// struct, registers, actions, controls). E.g. "cms".
	Prefix string
	// Key is the expression supplying the key to hash, e.g. "pkt.flow".
	Key string
	// Width is the element width in bits (counters or values).
	// Defaults to 32.
	Width int
	// Seed offsets the hash-function family so stacked modules hash
	// independently.
	Seed int
}

func (in Instance) width() int {
	if in.Width == 0 {
		return 32
	}
	return in.Width
}

// expand substitutes @ -> prefix, KEY -> key, W -> width, SEED -> seed.
func (in Instance) expand(tmpl string) string {
	r := strings.NewReplacer(
		"@", in.Prefix,
		"KEY", in.Key,
		"WIDTH", fmt.Sprintf("%d", in.width()),
		"SEED", fmt.Sprintf("%d", in.Seed),
	)
	return r.Replace(tmpl)
}

// CountMinSketch returns an elastic count-min sketch (Figure 6 of the
// paper): @_rows hash rows of @_cols counters, an update pass, and a
// min-fold producing the frequency estimate in @_meta.min. The elastic
// parameters are "@_rows" and "@_cols"; apply "@_update".
func CountMinSketch(in Instance) string {
	return in.expand(`
// --- count-min sketch module instance "@" ---
symbolic int @_rows;
symbolic int @_cols;

struct @_meta {
    bit<32>[@_rows] index;
    bit<WIDTH>[@_rows] count;
    bit<WIDTH> min;
}

register<bit<WIDTH>>[@_cols][@_rows] @_sketch;

action @_incr()[int i] {
    @_meta.index[i] = hash(KEY, i + SEED) % @_cols;
    @_sketch[i][@_meta.index[i]] = @_sketch[i][@_meta.index[i]] + 1;
    @_meta.count[i] = @_sketch[i][@_meta.index[i]];
}

action @_take_min()[int i] {
    @_meta.min = @_meta.count[i];
}

action @_seed_min() {
    @_meta.min = 4294967295;
}

control @_update {
    apply {
        @_seed_min();
        for (i < @_rows) {
            @_incr()[i];
        }
        for (i < @_rows) {
            if (@_meta.count[i] < @_meta.min) {
                @_take_min()[i];
            }
        }
    }
}
`)
}

// BloomFilter returns an elastic Bloom filter: @_rows hash functions
// over @_bits cells each. The membership evidence accumulates in
// @_meta.hits (equal to @_rows when the key was present in every row).
// Apply "@_check"; elastic parameters "@_rows" and "@_bits".
func BloomFilter(in Instance) string {
	return in.expand(`
// --- Bloom filter module instance "@" ---
symbolic int @_rows;
symbolic int @_bits;

struct @_meta {
    bit<32>[@_rows] index;
    bit<8>[@_rows] seen;
    bit<8> hits;
}

register<bit<8>>[@_bits][@_rows] @_filter;

action @_probe()[int i] {
    @_meta.index[i] = hash(KEY, i + SEED) % @_bits;
    @_meta.seen[i] = @_filter[i][@_meta.index[i]];
    @_filter[i][@_meta.index[i]] = 1;
}

action @_tally()[int i] {
    @_meta.hits = @_meta.hits + @_meta.seen[i];
}

control @_check {
    apply {
        for (i < @_rows) {
            @_probe()[i];
        }
        for (i < @_rows) {
            @_tally()[i];
        }
    }
}
`)
}

// KeyValueStore returns an elastic partitioned key-value store in the
// NetCache style: @_parts register arrays (one per stage the store
// spans) of @_slots value words each; a lookup pass and a fold that
// assembles the served value. Total capacity is @_parts * @_slots
// items. Apply "@_read".
func KeyValueStore(in Instance) string {
	return in.expand(`
// --- key-value store module instance "@" ---
symbolic int @_parts;
symbolic int @_slots;

struct @_meta {
    bit<32>[@_parts] index;
    bit<WIDTH>[@_parts] word;
    bit<WIDTH> value;
    bit<8> hit;
}

register<bit<WIDTH>>[@_slots][@_parts] @_store;

action @_lookup()[int i] {
    @_meta.index[i] = hash(KEY, i + SEED) % @_slots;
    @_meta.word[i] = @_store[i][@_meta.index[i]];
}

action @_fold()[int i] {
    @_meta.value = @_meta.value + @_meta.word[i];
}

control @_read {
    apply {
        for (i < @_parts) {
            @_lookup()[i];
        }
        for (i < @_parts) {
            @_fold()[i];
        }
    }
}
`)
}

// HashTable returns an elastic multi-stage hash table in the Precision
// style: @_stages probe stages, each with @_slots (key, value) pairs.
// A probe hashes the key per stage, reads the stored key and counter,
// and bumps the counter on a match. Apply "@_run".
func HashTable(in Instance) string {
	return in.expand(`
// --- hash table module instance "@" ---
symbolic int @_stages;
symbolic int @_slots;

struct @_meta {
    bit<32>[@_stages] index;
    bit<32>[@_stages] stored;
    bit<WIDTH>[@_stages] count;
    bit<8> matched;
}

register<bit<32>>[@_slots][@_stages] @_keys;
register<bit<WIDTH>>[@_slots][@_stages] @_vals;

action @_probe()[int i] {
    @_meta.index[i] = hash(KEY, i + SEED) % @_slots;
    @_meta.stored[i] = @_keys[i][@_meta.index[i]];
    @_vals[i][@_meta.index[i]] = @_vals[i][@_meta.index[i]] + 1;
    @_meta.count[i] = @_vals[i][@_meta.index[i]];
}

action @_note()[int i] {
    @_meta.matched = @_meta.matched + @_meta.count[i];
}

control @_run {
    apply {
        for (i < @_stages) {
            @_probe()[i];
        }
        for (i < @_stages) {
            @_note()[i];
        }
    }
}
`)
}

// Compose joins module fragments and application glue into one P4All
// program.
func Compose(fragments ...string) string {
	return strings.Join(fragments, "\n")
}

// FlowHeader is a minimal packet header carrying a flow key, shared by
// the standalone module programs and tests.
const FlowHeader = `
header pkt {
    bit<32> flow;
    bit<32> payload;
}
`

// Standalone wraps a single module instance into a compilable program
// with a default utility (maximize the product of the instance's two
// elastic parameters where meaningful).
func Standalone(fragment, apply, utility string) string {
	return Compose(FlowHeader, fragment, fmt.Sprintf(`
control main {
    apply {
        %s.apply();
    }
}

optimize %s;
`, apply, utility))
}

// StandaloneCMS is a ready-to-compile count-min sketch program.
func StandaloneCMS() string {
	return Standalone(CountMinSketch(Instance{Prefix: "cms", Key: "pkt.flow"}), "cms_update", "cms_rows * cms_cols")
}

// StandaloneBloom is a ready-to-compile Bloom filter program.
func StandaloneBloom() string {
	return Standalone(BloomFilter(Instance{Prefix: "bf", Key: "pkt.flow"}), "bf_check", "bf_rows * bf_bits")
}

// StandaloneKVS is a ready-to-compile key-value store program.
func StandaloneKVS() string {
	return Standalone(KeyValueStore(Instance{Prefix: "kv", Key: "pkt.flow"}), "kv_read", "kv_parts * kv_slots")
}

// StandaloneHashTable is a ready-to-compile hash table program.
func StandaloneHashTable() string {
	return Standalone(HashTable(Instance{Prefix: "ht", Key: "pkt.flow"}), "ht_run", "ht_stages * ht_slots")
}

// CountingTable returns a FlowRadar-style encoded flowset: @_rows hash
// rows of @_cells cells, where each cell accumulates the sum of flow
// keys mapped into it plus a flow count and a packet count. Cells
// holding a single flow decode exactly (flowsum / flowcnt recovers the
// key); the controller peels them off-switch, FlowRadar fashion. The
// language has no XOR operator, so the canonical FlowXOR field is
// encoded additively — same single-flow decode, pure-increment
// updates. Apply "@_record"; elastic parameters "@_rows" and
// "@_cells".
func CountingTable(in Instance) string {
	return in.expand(`
// --- counting table module instance "@" ---
symbolic int @_rows;
symbolic int @_cells;

struct @_meta {
    bit<32>[@_rows] index;
    bit<WIDTH>[@_rows] pkts;
    bit<WIDTH> total;
}

register<bit<32>>[@_cells][@_rows] @_flowsum;
register<bit<WIDTH>>[@_cells][@_rows] @_flowcnt;
register<bit<WIDTH>>[@_cells][@_rows] @_pktcnt;

action @_encode()[int i] {
    @_meta.index[i] = hash(KEY, i + SEED) % @_cells;
    @_flowsum[i][@_meta.index[i]] = @_flowsum[i][@_meta.index[i]] + KEY;
    @_flowcnt[i][@_meta.index[i]] = @_flowcnt[i][@_meta.index[i]] + 1;
    @_pktcnt[i][@_meta.index[i]] = @_pktcnt[i][@_meta.index[i]] + 1;
    @_meta.pkts[i] = @_pktcnt[i][@_meta.index[i]];
}

action @_tally()[int i] {
    @_meta.total = @_meta.total + @_meta.pkts[i];
}

control @_record {
    apply {
        for (i < @_rows) {
            @_encode()[i];
        }
        for (i < @_rows) {
            @_tally()[i];
        }
    }
}
`)
}

// StandaloneCountingTable is a ready-to-compile counting table program.
func StandaloneCountingTable() string {
	return Standalone(CountingTable(Instance{Prefix: "ct", Key: "pkt.flow"}), "ct_record", "ct_rows * ct_cells")
}

// IDTable returns a Blink-style ID-indexed state table: a single
// elastic register array indexed directly by an identifier field.
// Apply "@_touch"; the elastic parameter is "@_size".
func IDTable(in Instance) string {
	return in.expand(`
// --- ID-indexed table module instance "@" ---
symbolic int @_size;

struct @_meta {
    bit<32> slot;
    bit<WIDTH> state;
}

register<bit<WIDTH>>[@_size] @_table;

action @_load() {
    @_meta.slot = KEY % @_size;
    @_table[@_meta.slot] = @_table[@_meta.slot] + 1;
    @_meta.state = @_table[@_meta.slot];
}

control @_touch {
    apply {
        @_load();
    }
}
`)
}

// StandaloneIDTable is a ready-to-compile ID-indexed table program.
func StandaloneIDTable() string {
	return Standalone(IDTable(Instance{Prefix: "idt", Key: "pkt.flow"}), "idt_touch", "idt_size")
}
