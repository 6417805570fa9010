package serve

import (
	"testing"

	"p4all/internal/elastic"
	"p4all/internal/ilpgen"
	"p4all/internal/structures"
	"p4all/internal/workload"
)

// testLayout hand-builds a layout with the NetCache structure shapes,
// skipping the compiler for structure-level tests.
func testLayout(rows, cols, parts, slots int64) *ilpgen.Layout {
	return &ilpgen.Layout{Symbolics: map[string]int64{
		"cms_rows": rows, "cms_cols": cols, "kv_parts": parts, "kv_slots": slots,
	}}
}

const noAdmission = ^uint32(0) // threshold no estimate reaches

// lookup reads a key from its owning shard's store inside a quiesce
// window (KV partitions are disjoint, so one shard is authoritative).
func lookup(n *NetCache, key uint64) (val uint64, ok bool, err error) {
	err = n.rt.Quiesce(func() error {
		p := n.planes[n.route(key)]
		val, ok = p.KV.Get(key)
		return nil
	})
	return
}

// TestNetCacheKVBitIdenticalToSingleShard is the golden KVS oracle:
// on a pure put/get workload (admission disabled), every read from
// the sharded cache must be bit-identical to a single-shard run and
// to a plain KVStore fed the same sequence — partition routing keeps
// each slot's collision set on one shard, so eviction order is
// preserved exactly.
func TestNetCacheKVBitIdenticalToSingleShard(t *testing.T) {
	l := testLayout(2, 256, 4, 32)
	golden, err := structures.NewKVStore(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.ZipfKeys(3, 2000, 1.1, 30000)
	for shards := 1; shards <= 4; shards <<= 1 {
		nc, err := NewNetCache(NetCacheConfig{Layout: l, Shards: shards, BatchSize: 64, Threshold: noAdmission})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := nc.Dispatch(Request{Op: OpPut, Key: k, Val: k*7 + 1}); err != nil {
				t.Fatal(err)
			}
		}
		nc.Drain()
		if shards == 1 {
			for _, k := range keys {
				golden.Put(k, k*7+1)
			}
		}
		for k := uint64(0); k < 2000; k++ {
			want, wantOK := golden.Get(k)
			got, gotOK, err := lookup(nc, k)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || got != want {
				t.Fatalf("shards=%d key %d: got (%d,%v), golden (%d,%v)", shards, k, got, gotOK, want, wantOK)
			}
		}
		if err := nc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetCacheServeLoopAdmitsAndHits runs the full admission loop (the
// Figure 4 serve loop) sharded: a Zipf 0.95 stream — the skew the wire
// benchmark's GETs use — must clear a 0.4 hit rate (measured 0.54; a
// cache that admits nothing useful sits near 0), with consistent
// counters, and an admitted hot key readable with its backend value.
func TestNetCacheServeLoopAdmitsAndHits(t *testing.T) {
	l := testLayout(2, 1024, 8, 64)
	nc, err := NewNetCache(NetCacheConfig{Layout: l, Shards: 4, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reqs := make([]Request, 0, 60000)
	for _, k := range workload.ZipfKeys(11, 5000, 0.95, 60000) {
		reqs = append(reqs, Request{Op: OpGet, Key: k})
	}
	if err := nc.DispatchAll(reqs); err != nil {
		t.Fatal(err)
	}
	nc.Drain()
	h, m, admits := nc.Stats()
	if h+m != uint64(len(reqs)) {
		t.Fatalf("hits+misses = %d, want %d", h+m, len(reqs))
	}
	if h == 0 || admits == 0 {
		t.Fatalf("skewed stream produced %d hits, %d admissions; want both nonzero", h, admits)
	}
	if rate := nc.HitRate(); rate < 0.4 || rate >= 1 {
		t.Fatalf("hit rate %f outside [0.4,1)", rate)
	}
	if nc.Packets() != uint64(len(reqs)) {
		t.Fatalf("Packets() = %d, want %d", nc.Packets(), len(reqs))
	}
	// A hot key that was admitted must now be readable and carry the
	// backend value.
	hot := workload.ZipfKeys(11, 5000, 0.95, 1)[0]
	if v, ok, err := lookup(nc, hot); err != nil {
		t.Fatal(err)
	} else if ok && v != hot*3 {
		t.Fatalf("admitted key %d carries %d, want backend value %d", hot, v, hot*3)
	}
}

// TestNetCacheSwapLayoutMigratesUnderTraffic re-shapes the cache
// mid-stream: the swap must bump the epoch exactly once, keep
// same-partition entries readable, and leave the runtime serving.
func TestNetCacheSwapLayoutMigratesUnderTraffic(t *testing.T) {
	l := testLayout(2, 256, 4, 32)
	nc, err := NewNetCache(NetCacheConfig{Layout: l, Shards: 2, BatchSize: 32, Threshold: noAdmission})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for k := uint64(0); k < 200; k++ {
		if err := nc.Dispatch(Request{Op: OpPut, Key: k, Val: k + 1000}); err != nil {
			t.Fatal(err)
		}
	}
	nc.Drain()
	kept := make(map[uint64]uint64)
	for k := uint64(0); k < 200; k++ {
		if v, ok, err := lookup(nc, k); err != nil {
			t.Fatal(err)
		} else if ok {
			kept[k] = v
		}
	}
	if len(kept) == 0 {
		t.Fatal("no keys survived the initial puts")
	}

	// Same kv shape (routing unchanged), wider CMS: migration keeps
	// every surviving entry.
	hot := make([]elastic.KeyCount, 0, len(kept))
	for k := range kept {
		hot = append(hot, elastic.KeyCount{Key: k, Count: 1})
	}
	epoch, dropped, err := nc.SwapLayout(testLayout(2, 512, 4, 32), hot)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch after swap = %d, want 2", epoch)
	}
	if dropped != 0 {
		t.Fatalf("same-shape KV migration dropped %d entries", dropped)
	}
	for k, want := range kept {
		if v, ok, err := lookup(nc, k); err != nil {
			t.Fatal(err)
		} else if !ok || v != want {
			t.Fatalf("key %d after swap: got (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	// The runtime keeps serving after the swap.
	if err := nc.Dispatch(Request{Op: OpPut, Key: 9999, Val: 1}); err != nil {
		t.Fatal(err)
	}
	nc.Drain()
	if v, ok, err := lookup(nc, 9999); err != nil || !ok || v != 1 {
		t.Fatalf("post-swap put unreadable: (%d,%v,%v)", v, ok, err)
	}
}
