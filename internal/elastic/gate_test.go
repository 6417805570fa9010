package elastic

import (
	"sync"
	"testing"

	"p4all/internal/structures"
)

func mkTestPlanes(t *testing.T, n int) []*Plane {
	t.Helper()
	planes := make([]*Plane, n)
	for i := range planes {
		cms, err := structures.NewCountMinSketch(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		kv, err := structures.NewKVStore(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		planes[i] = &Plane{CMS: cms, KV: kv}
	}
	return planes
}

// TestGateEpochConsistencyUnderSwap drives packet processing through
// a one-plane gate — the Controller's — while a controller goroutine
// keeps swapping fully-built planes in. Run under -race (CI does): the
// reader must always see a (plane, epoch) pair from a single Swap —
// never a torn mix — and the plane it loaded stays safe to mutate
// until its next Load.
func TestGateEpochConsistencyUnderSwap(t *testing.T) {
	g, err := NewGate(mkTestPlanes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, e := g.Load(0); e != 1 {
		t.Fatalf("initial epoch = %d, want 1", e)
	}

	const swaps = 200
	const packetsPerLoad = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)

	// The packet processor: loads a plane, owns it for a burst of
	// packets, loads again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		key := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, epoch := g.Load(0)
			if p.Epoch != epoch {
				errs <- "torn load: plane epoch does not match gate epoch"
				return
			}
			for i := 0; i < packetsPerLoad; i++ {
				key++
				if _, ok := p.KV.Get(key); !ok {
					if p.CMS.Update(key) >= 4 {
						p.KV.Put(key, key*3)
					}
				}
			}
		}
	}()

	// A monitor that only checks pair consistency.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, epoch := g.Load(0)
			if p.Epoch != epoch {
				errs <- "monitor saw torn load"
				return
			}
		}
	}()

	// The controller: builds replacement planes off to the side and
	// swaps them in.
	var lastEpoch uint64
	for i := 0; i < swaps; i++ {
		next := mkTestPlanes(t, 1)
		// Pre-populate off to the side — allowed: the plane is not
		// published yet.
		for k := uint64(0); k < 32; k++ {
			next[0].CMS.Update(k)
		}
		e, err := g.Swap(next)
		if err != nil {
			t.Fatal(err)
		}
		if e <= lastEpoch {
			t.Fatalf("epoch went backwards: %d after %d", e, lastEpoch)
		}
		lastEpoch = e
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := g.Epoch(); got != swaps+1 {
		t.Fatalf("final epoch = %d, want %d", got, swaps+1)
	}
}

func TestGateSwapStampsSharedEpoch(t *testing.T) {
	g, err := NewGate(mkTestPlanes(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", g.Epoch())
	}
	for s := 0; s < 4; s++ {
		p, e := g.Load(s)
		if e != 1 || p.Epoch != 1 {
			t.Fatalf("shard %d: load epoch %d, plane epoch %d, want 1/1", s, e, p.Epoch)
		}
	}
	next := mkTestPlanes(t, 4)
	e, err := g.Swap(next)
	if err != nil {
		t.Fatal(err)
	}
	if e != 2 {
		t.Fatalf("swap epoch = %d, want 2", e)
	}
	for s := 0; s < 4; s++ {
		p, le := g.Load(s)
		if le != 2 || p.Epoch != 2 {
			t.Fatalf("shard %d after swap: load epoch %d, plane epoch %d, want 2/2", s, le, p.Epoch)
		}
		if p != next[s] {
			t.Fatalf("shard %d did not receive its replacement plane", s)
		}
	}
}

func TestGateRejectsShardCountMismatch(t *testing.T) {
	if _, err := NewGate(nil); err == nil {
		t.Fatal("NewGate(nil) accepted an empty plane set")
	}
	g, err := NewGate(mkTestPlanes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Swap(mkTestPlanes(t, 2)); err == nil {
		t.Fatal("Swap accepted a plane set of the wrong shard count")
	}
	// A rejected swap must not disturb the published set.
	if g.Epoch() != 1 || len(g.Planes()) != 3 {
		t.Fatalf("after rejected swap: epoch %d shards %d, want 1/3", g.Epoch(), len(g.Planes()))
	}
}

func TestGatePlanesReturnsCopy(t *testing.T) {
	g, err := NewGate(mkTestPlanes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	ps := g.Planes()
	ps[0] = nil
	if p, _ := g.Load(0); p == nil {
		t.Fatal("mutating the Planes() slice leaked into the gate")
	}
}
