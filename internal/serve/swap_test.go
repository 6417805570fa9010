package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"p4all/internal/elastic"
)

// TestSwapEpochConsistencyUnderLoad: a controller goroutine re-shapes
// the cache (quiesce → migrate all shards → publish) while dispatchers
// pump traffic through every shard. Run under -race (CI does). The
// invariants: every request in a batch executes against the epoch the
// batch loaded (no torn epoch — a swap can never land mid-batch,
// because swaps only happen inside the quiesce window), and each
// shard's observed epochs are non-decreasing.
func TestSwapEpochConsistencyUnderLoad(t *testing.T) {
	const shards = 4
	// batchEpoch[s] is written in onBatch and read in Respond — both
	// run on shard s's goroutine, but the race detector should see the
	// accesses anyway, so keep them atomic.
	var batchEpoch [shards]atomic.Uint64
	var lastEpoch [shards]uint64
	var torn atomic.Bool
	var monotonicViolation atomic.Bool

	var nc *NetCache
	cfg := NetCacheConfig{
		Layout:    testLayout(2, 256, 4, 64),
		Shards:    shards,
		BatchSize: 16,
		Threshold: 4,
		onBatch: func(shard int, epoch uint64, n int) {
			batchEpoch[shard].Store(epoch)
			if epoch < lastEpoch[shard] {
				monotonicViolation.Store(true)
			}
			lastEpoch[shard] = epoch
		},
		Respond: func(shard int, req Request, status uint8, val uint64) {
			// The cache's live epoch must still be the one this batch
			// loaded: if a swap overlapped the batch, they would differ.
			if nc.Epoch() != batchEpoch[shard].Load() {
				torn.Store(true)
			}
		},
	}
	var err error
	nc, err = NewNetCache(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const swaps = 50
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			key := uint64(d)
			for {
				select {
				case <-stop:
					return
				default:
				}
				key += 2
				op := uint8(OpGet)
				if key%16 == 0 {
					op = OpPut
				}
				if err := nc.Dispatch(Request{Op: op, Key: key % 4096, Val: key}); err != nil {
					return // runtime closing
				}
			}
		}(d)
	}

	// Interleave guaranteed traffic with the swaps from this goroutine
	// too: on GOMAXPROCS=1 the swap loop could otherwise finish before
	// the dispatchers above are ever scheduled.
	cols, key := int64(256), uint64(1)
	for i := 0; i < swaps; i++ {
		for j := 0; j < 400; j++ {
			key += 3
			if err := nc.Dispatch(Request{Op: OpGet, Key: key % 4096}); err != nil {
				t.Fatal(err)
			}
		}
		cols ^= 256 ^ 512 // alternate 256 <-> 512 so every swap re-shapes
		if _, _, err := nc.SwapLayout(testLayout(2, cols, 4, 64), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	nc.Drain()
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}
	if torn.Load() {
		t.Fatal("a request observed a cache epoch different from its batch's epoch")
	}
	if monotonicViolation.Load() {
		t.Fatal("a shard observed a decreasing epoch")
	}
	if got := nc.Epoch(); got != swaps+1 {
		t.Fatalf("final epoch = %d, want %d", got, swaps+1)
	}
	if nc.Packets() == 0 {
		t.Fatal("no traffic flowed during the swap storm")
	}
}

// TestSwapLayoutKeepsHotStateUnderLoad storms re-shapes of both
// structures while dispatchers keep every shard busy, and after each
// swap checks the migration safety invariants across all planes:
//
//   - every plane carries its layout, with exactly its sketch shape
//     (no sketch row lost);
//   - the owning shard's CMS never under-estimates a seeded hot key
//     (counts are carried or re-admitted, never silently zeroed);
//   - the hottest key — first in line for re-admission — stays cached.
func TestSwapLayoutKeepsHotStateUnderLoad(t *testing.T) {
	nc, err := NewNetCache(NetCacheConfig{Layout: testLayout(2, 256, 4, 64), Shards: 4, BatchSize: 16, Threshold: noAdmission})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hot := []elastic.KeyCount{{Key: 11, Count: 100}, {Key: 22, Count: 90}, {Key: 33, Count: 80}, {Key: 44, Count: 70}}
	for _, kc := range hot {
		for i := uint64(0); i < kc.Count; i++ {
			if err := nc.Dispatch(Request{Op: OpGet, Key: kc.Key}); err != nil {
				t.Fatal(err)
			}
		}
	}
	hottest := hot[0].Key
	if err := nc.Dispatch(Request{Op: OpPut, Key: hottest, Val: 7}); err != nil {
		t.Fatal(err)
	}
	nc.Drain()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for d := uint64(0); d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := 1000 + d; ; key += 2 {
				select {
				case <-stop:
					return
				default:
				}
				if nc.Dispatch(Request{Op: OpGet, Key: key % 8192}) != nil {
					return // runtime closing
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 20; i++ {
		// Traffic from this goroutine too, so every swap lands on busy
		// shards even when the dispatchers above are not scheduled.
		for k := uint64(0); k < 200; k++ {
			if err := nc.Dispatch(Request{Op: OpGet, Key: 2000 + k}); err != nil {
				t.Fatal(err)
			}
		}
		l := testLayout(2, 256, 4, 64)
		if i%2 == 0 {
			l = testLayout(3, 512, 4, 128)
		}
		epoch, _, err := nc.SwapLayout(l, hot)
		if err != nil {
			t.Fatal(err)
		}
		err = nc.rt.Quiesce(func() error {
			if e := nc.Epoch(); e != epoch {
				t.Errorf("swap %d: cache at epoch %d, SwapLayout returned %d", i, e, epoch)
			}
			for s, p := range nc.planes {
				if p.Layout != l {
					t.Errorf("swap %d shard %d: plane does not carry the new layout", i, s)
				}
				if p.CMS.Rows() != int(l.Symbolic("cms_rows")) || p.CMS.Cols() != int(l.Symbolic("cms_cols")) {
					t.Errorf("swap %d shard %d: cms %dx%d, layout says %v",
						i, s, p.CMS.Rows(), p.CMS.Cols(), l.Symbolics)
				}
			}
			for _, kc := range hot {
				p := nc.planes[nc.route(kc.Key)]
				if est := p.CMS.Estimate(kc.Key); uint64(est) < kc.Count {
					t.Errorf("swap %d: CMS estimate for key %d fell to %d (< %d)", i, kc.Key, est, kc.Count)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := lookup(nc, hottest); err != nil || !ok || v != 7 {
			t.Fatalf("swap %d: hottest key %d reads (%d, %v, %v), want (7, true)", i, hottest, v, ok, err)
		}
	}
}

// TestQuiesceExcludesProcessing verifies the quiesce window's core
// guarantee directly: while Quiesce's callback runs, no shard is
// inside Process.
func TestQuiesceExcludesProcessing(t *testing.T) {
	var inProcess atomic.Int64
	var overlap atomic.Bool
	rt, err := NewRuntime(Config[int]{
		Shards:    3,
		BatchSize: 8,
		Route:     func(v int) int { return v % 3 },
		Process: func(shard int, batch []int) error {
			inProcess.Add(1)
			for range batch {
			}
			inProcess.Add(-1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; v < 50000; v++ {
			if rt.Dispatch(v) != nil {
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		err := rt.Quiesce(func() error {
			if inProcess.Load() != 0 {
				overlap.Store(true)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if overlap.Load() {
		t.Fatal("Quiesce callback ran while a shard was processing")
	}
}
