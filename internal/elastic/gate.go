package elastic

import (
	"fmt"
	"sync"
)

// Gate publishes the active data planes — one per shard, each owned by
// its shard's goroutine between Loads — to the packet-processing side
// under a single shared epoch. The controller builds and
// state-migrates replacement planes entirely off to the side, then
// Swap makes the whole set visible in one step: a reader either sees
// the complete old set or the complete new one, never a mix, and a
// loaded plane's own Epoch always equals the epoch it was loaded at —
// the "consistent layout" invariant of the reoptimization loop. The
// controller never mutates a published plane.
//
// The cross-shard freshness invariant ("no shard processes a batch
// against epoch e while another processes against e'") is not the
// gate's to enforce — it requires quiescing the shards around the
// swap, which is internal/serve.Runtime.Quiesce's job; the gate
// guarantees only that what is published is a complete,
// consistently-stamped plane set. A single-shard reader (the
// Controller) needs no quiesce: it loads shard 0.
type Gate struct {
	mu     sync.Mutex
	epoch  uint64
	planes []*Plane
}

// NewGate starts a gate serving the given per-shard planes at epoch 1.
// The slice is copied; at least one plane is required.
func NewGate(planes []*Plane) (*Gate, error) {
	if len(planes) == 0 {
		return nil, fmt.Errorf("elastic: Gate needs at least one plane")
	}
	g := &Gate{}
	if _, err := g.Swap(planes); err != nil {
		return nil, err
	}
	return g, nil
}

// Load returns shard's active plane and the epoch the whole set was
// installed at. The plane's own Epoch field always equals the returned
// epoch; the plane is owned by the caller until its next Load.
func (g *Gate) Load(shard int) (*Plane, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.planes[shard], g.epoch
}

// Epoch returns the current epoch without loading a plane.
func (g *Gate) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Planes returns the current plane set (a copied slice; the planes
// themselves are the live ones). Callers must not mutate the planes
// unless the shards are quiesced — this is the migration read path,
// which internal/serve runs inside its quiesce window.
func (g *Gate) Planes() []*Plane {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Plane(nil), g.planes...)
}

// Swap atomically installs a fully-built plane set, stamping every
// plane with the same new epoch, and returns it. The replacement must
// have one plane per shard (the shard count is fixed at construction).
func (g *Gate) Swap(planes []*Plane) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.planes != nil && len(planes) != len(g.planes) {
		return 0, fmt.Errorf("elastic: Swap with %d planes, gate has %d shards", len(planes), len(g.planes))
	}
	g.epoch++
	for _, p := range planes {
		p.Epoch = g.epoch
	}
	g.planes = append([]*Plane(nil), planes...)
	return g.epoch, nil
}
