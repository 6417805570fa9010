package serve

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRuntimeServesLoneItem dispatches single items to an idle runtime
// and waits for Process: with no Drain and no timer, a lone item must
// still reach its worker, whether the worker is waiting on its queue or
// just finishing the previous item.
func TestRuntimeServesLoneItem(t *testing.T) {
	got := make(chan int, 1)
	rt, err := NewRuntime(Config[int]{
		Shards:    2,
		BatchSize: 64,
		Route:     func(v int) int { return v % 2 },
		Process: func(_ int, batch []int) error {
			for _, v := range batch {
				got <- v
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, v := range []int{1, 2, 3} {
		if err := rt.Dispatch(v); err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-got:
			if g != v {
				t.Fatalf("Process saw %d, want %d", g, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d dispatched to an idle runtime never reached Process", v)
		}
		time.Sleep(10 * time.Millisecond) // let both workers wait
	}
}

// TestRuntimeWakeStress dispatches random bursts with random pauses in
// between and waits for each burst to be processed without calling
// Drain, so a lost wake-up or a stranded item hangs the round. No batch
// may be longer than BatchSize. Run it under -race.
func TestRuntimeWakeStress(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	const batch = 8
	rng := rand.New(rand.NewPCG(1, 2))
	for shards := 1; shards <= 4; shards++ {
		var processed atomic.Uint64
		last := make([]int, shards) // per-shard, touched only by its worker
		for i := range last {
			last[i] = -1
		}
		var disordered, oversized atomic.Bool
		rt, err := NewRuntime(Config[int]{
			Shards:     shards,
			BatchSize:  batch,
			queueDepth: 2,
			Route:      func(v int) int { return v % shards },
			Process: func(s int, b []int) error {
				if len(b) > batch {
					oversized.Store(true)
				}
				for _, v := range b {
					if v <= last[s] {
						disordered.Store(true)
					}
					last[s] = v
				}
				processed.Add(uint64(len(b)))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		items := make([]int, 2*batch)
		for round := 0; round < rounds; round++ {
			n := 1 + rng.IntN(2*batch)
			if rng.IntN(2) == 0 {
				for i := 0; i < n; i++ {
					if err := rt.Dispatch(next); err != nil {
						t.Fatal(err)
					}
					next++
				}
			} else {
				for i := range items[:n] {
					items[i] = next
					next++
				}
				if err := rt.DispatchAll(items[:n]); err != nil {
					t.Fatal(err)
				}
			}
			for pause, start := time.Duration(rng.IntN(50))*time.Microsecond, time.Now(); time.Since(start) < pause; {
				runtime.Gosched()
			}
			for deadline := time.Now().Add(5 * time.Second); processed.Load() != uint64(next); {
				if time.Now().After(deadline) {
					t.Fatalf("shards=%d round %d: %d of %d items processed; a batch was stranded",
						shards, round, processed.Load(), next)
				}
				runtime.Gosched()
			}
		}
		if disordered.Load() {
			t.Fatalf("shards=%d: a shard saw its items out of order", shards)
		}
		if oversized.Load() {
			t.Fatalf("shards=%d: a batch was longer than BatchSize %d", shards, batch)
		}
		closed := make(chan error, 1)
		go func() { closed <- rt.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("shards=%d: Close of an idle runtime did not return", shards)
		}
	}
}

// TestRuntimeOrderUnderConcurrency pushes a long stream through one
// shard with a two-batch queue, so the producer blocks on a full queue
// and the worker waits on an empty one over and over: the worker must
// see every item exactly once, in dispatch order, in batches of at most
// BatchSize.
func TestRuntimeOrderUnderConcurrency(t *testing.T) {
	const n, batchSize = 100000, 16
	var got []int
	longest := 0
	rt, err := NewRuntime(Config[int]{
		Shards:     1,
		BatchSize:  batchSize,
		queueDepth: 2,
		Route:      func(int) int { return 0 },
		Process: func(_ int, batch []int) error {
			longest = max(longest, len(batch))
			got = append(got, batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := rt.Dispatch(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("worker processed %d items, want %d", len(got), n)
	}
	if longest > batchSize {
		t.Fatalf("a batch held %d items, BatchSize is %d", longest, batchSize)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
}

// TestRuntimeCloseDrainsThenStops holds the worker inside Process three
// times. Drain, with nothing queued behind the held item, and Quiesce,
// with a partial queue behind it, must each block until the release and
// return once everything dispatched has been processed. Close, called
// while the queue holds full batches and a partial one, must return
// only after all of them have been processed, and the runtime must
// refuse work afterwards.
func TestRuntimeCloseDrainsThenStops(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	held := map[int]bool{0: true, 1: true, 6: true}
	var got []int
	rt, err := NewRuntime(Config[int]{
		Shards:    1,
		BatchSize: 4,
		Route:     func(int) int { return 0 },
		Process: func(_ int, batch []int) error {
			if held[batch[0]] {
				started <- struct{}{}
				<-release
			}
			got = append(got, batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatch := func(lo, hi int) {
		t.Helper()
		for v := lo; v < hi; v++ {
			if err := rt.Dispatch(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// hold dispatches [lo, mid), waits until the worker holds item lo,
	// dispatches [mid, hi) behind it, and runs op: op must not return
	// while the worker is held, and must return once it is released.
	hold := func(what string, lo, mid, hi int, op func() error) {
		t.Helper()
		dispatch(lo, mid)
		<-started
		dispatch(mid, hi)
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			t.Fatalf("%s returned %v while the worker was still busy", what, err)
		case <-time.After(20 * time.Millisecond):
		}
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != hi {
			t.Fatalf("%s returned after %d of %d items were processed", what, len(got), hi)
		}
	}
	hold("Drain", 0, 1, 1, func() error { rt.Drain(); return nil })
	quiet := -1
	hold("Quiesce", 1, 2, 6, func() error {
		return rt.Quiesce(func() error { quiet = len(got); return nil })
	})
	if quiet != 6 {
		t.Fatalf("Quiesce ran its window after %d of 6 items were processed", quiet)
	}
	hold("Close", 6, 7, 17, rt.Close)
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
	if err := rt.Dispatch(17); err == nil {
		t.Fatal("Dispatch after Close succeeded")
	}
}
