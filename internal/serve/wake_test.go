package serve

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRuntimeServesLoneItem dispatches single items to an idle runtime
// and waits for Process: with no Drain and no timer, a partial batch
// must still reach its worker — once before the worker has parked and
// once after.
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
		time.Sleep(10 * time.Millisecond) // let both workers park
	}
}

// TestRuntimeWakeStress dispatches random bursts with random pauses in
// between and waits for each burst to be processed without calling
// Drain, so a lost wake-up or a stranded partial batch hangs the round.
// Run it under -race.
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
		var disordered atomic.Bool
		rt, err := NewRuntime(Config[int]{
			Shards:     shards,
			BatchSize:  batch,
			queueDepth: 2,
			Route:      func(v int) int { return v % shards },
			Process: func(s int, b []int) error {
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
		for i := range rt.shards {
			for !rt.shards[i].parked.Load() {
				runtime.Gosched()
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- rt.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("shards=%d: Close with every worker parked did not return", shards)
		}
	}
}

// TestRuntimeOrderUnderConcurrency pushes a long stream through one
// shard with a two-batch queue, so the producer blocks on a full queue
// and the worker parks on an empty one over and over: the worker must
// see every item exactly once and in dispatch order.
func TestRuntimeOrderUnderConcurrency(t *testing.T) {
	const n = 100000
	var got []int
	rt, err := NewRuntime(Config[int]{
		Shards:     1,
		BatchSize:  16,
		queueDepth: 2,
		Route:      func(int) int { return 0 },
		Process: func(_ int, batch []int) error {
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
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
}

// TestRuntimeCloseDrainsThenStops closes a runtime while its worker is
// busy, its queue holds full batches and a partial batch is still
// being filled: Close must return only after all of them have been
// processed, and the runtime must refuse work afterwards.
func TestRuntimeCloseDrainsThenStops(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var got []int
	rt, err := NewRuntime(Config[int]{
		Shards:    1,
		BatchSize: 4,
		Route:     func(int) int { return 0 },
		Process: func(_ int, batch []int) error {
			if len(got) == 0 {
				close(started)
				<-release
			}
			got = append(got, batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Dispatch(0); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds item 0 and waits for release
	for v := 1; v <= 10; v++ {
		if err := rt.Dispatch(v); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- rt.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while the worker was still busy", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("Close returned after %d of 11 items were processed", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
	if err := rt.Dispatch(11); err == nil {
		t.Fatal("Dispatch after Close succeeded")
	}
}

// TestWorkerTakeSkipsFullQueue stands in for a parked worker that was
// woken, found its queue empty, was descheduled, and won TryLock only
// after the producer had filled that queue and left a partial batch:
// neither its take nor its unlock may push into the full queue, which
// only the worker itself drains.
func TestWorkerTakeSkipsFullQueue(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var got []int
	rt, err := NewRuntime(Config[int]{
		Shards:     1,
		BatchSize:  2,
		queueDepth: 2,
		Route:      func(int) int { return 0 },
		Process: func(_ int, batch []int) error {
			if len(got) == 0 {
				close(started)
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
		for v := lo; v < hi; v++ {
			if err := rt.Dispatch(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	dispatch(0, 2)
	<-started      // the worker holds batch [0 1]
	dispatch(2, 7) // two full batches fill the queue; item 6 waits in fill
	s := &rt.shards[0]
	if !rt.mu.TryLock() {
		t.Fatal("TryLock failed with no producer running")
	}
	took := make(chan struct{})
	go func() {
		s.parked.Store(true)
		rt.takeLocked(s)
		s.parked.Store(false)
		close(took)
	}()
	select {
	case <-took:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the worker's take pushed into its own full queue and blocked holding the lock")
	}
	if !s.pending.Load() {
		t.Fatal("the partial batch left fill although the queue had no room")
	}
	close(release)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
	if len(got) != 7 {
		t.Fatalf("processed %d of 7 items", len(got))
	}
}

// TestWorkerParksBehindHeldLock leaves a partial batch while holding
// the producer lock, once just after the worker finished a batch and
// once after it has parked, and then releases the lock without a
// hand-off, as a holder does when the worker parks after its hand-off:
// the worker must park rather than spin on the held lock, and the
// release must still get the batch to it.
func TestWorkerParksBehindHeldLock(t *testing.T) {
	got := make(chan int, 1)
	rt, err := NewRuntime(Config[int]{
		Shards:    1,
		BatchSize: 64,
		Route:     func(int) int { return 0 },
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
	s := &rt.shards[0]
	receive := func(v int) {
		select {
		case g := <-got:
			if g != v {
				t.Fatalf("Process saw %d, want %d", g, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d left behind the held lock never reached Process", v)
		}
	}
	if err := rt.Dispatch(0); err != nil {
		t.Fatal(err)
	}
	receive(0)
	for v := 1; v <= 2; v++ {
		rt.mu.Lock()
		if err := rt.dispatchLocked(v); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); !s.parked.Load(); runtime.Gosched() {
			if time.Now().After(deadline) {
				rt.release()
				t.Fatalf("item %d: the worker spun on the held lock instead of parking", v)
			}
		}
		rt.release()
		receive(v)
		time.Sleep(10 * time.Millisecond) // let the worker park first
	}
}
