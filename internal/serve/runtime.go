// Package serve is the sharded multi-core serving runtime: an
// RSS-style dispatcher that flow-hashes traffic across N shards, each
// owning a private batch queue and private data-plane state, so the
// single-goroutine zero-alloc replay engine (internal/sim) scales out
// without locks on the packet path.
//
// The design mirrors how a multi-pipe switch — or a NIC spreading
// flows across cores with receive-side scaling — runs one P4All
// program: every shard executes the same compiled layout against its
// own registers, and a flow hash pins each key to one shard so per-key
// state never crosses cores (key-value partitions are disjoint, so a
// key's partition names its shard). Reconfiguration has one path,
// NetCache.SwapLayout, which the elastic controller calls as the swap
// it is handed: Runtime.Quiesce drains every shard,
// elastic.MigrateShards migrates all N planes inside the quiet window,
// and the new set is published there under one epoch, so no batch ever
// executes against a torn mix of layouts. See
// docs/SERVING.md for the full protocol.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"p4all/internal/obs"
	"p4all/internal/structures"
)

// Config sizes a Runtime and binds its routing and processing hooks.
type Config[T any] struct {
	// Shards is the number of worker goroutines / state planes
	// (default 1).
	Shards int
	// BatchSize caps a batch (default 256); no batch waits to fill.
	BatchSize int
	// Route maps an item to its owning shard in [0, Shards). Required.
	// Keys that share data-plane state must share a shard: use
	// FlowRoute for plain flow hashing or PartitionRoute when a
	// KVStore's collision behavior must match the single-shard run.
	Route func(item T) int
	// Process consumes one batch on the shard's goroutine. The batch
	// slice is recycled after return; implementations must not retain
	// it. An error poisons the runtime (Err) and later batches on any
	// shard are dropped.
	Process func(shard int, batch []T) error
	// Tracer receives per-shard packet/batch counters
	// ("serve.shard3.packets"); nil disables.
	Tracer *obs.Tracer
	// queueDepth is the per-shard queue capacity in batches (default
	// 8, rounded up to a power of two). Tests shrink it to reach a
	// full queue.
	queueDepth int
}

// shard keeps the producer's per-item writes to fill, and the worker's
// per-batch counters, off the cache line an idle worker polls; sharing
// it made bulk DispatchAll ≈ 1.8× slower.
type shard[T any] struct {
	in      *spsc[[]T]
	free    *spsc[[]T]
	pending atomic.Bool // len(fill) > 0, readable without the lock
	parked  atomic.Bool // the worker is idle in await
	wake    chan struct{}
	_       [64]byte
	fill    []T // producer-side batch being accumulated
	pushed  atomic.Uint64
	_       [64]byte
	handled atomic.Uint64
	packets atomic.Uint64
	pkts    *obs.Counter
	batches *obs.Counter
	_       [64]byte
}

// Runtime fans items out to per-shard worker goroutines. Dispatch,
// Drain, Quiesce, and Close are safe to call from any goroutine (a
// mutex serializes producers); Process runs only on the shard's own
// goroutine, which is what lets it own sim.Pipeline state without
// synchronization. A batch waits for a busy worker, never for a timer.
type Runtime[T any] struct {
	cfg    Config[T]
	shards []shard[T]
	wg     sync.WaitGroup

	mu     sync.Mutex // serializes producers: Dispatch/Drain/Quiesce/Close
	closed bool

	errOnce sync.Once
	err     atomic.Pointer[error]
}

// NewRuntime validates the config, starts the shard goroutines, and
// returns the running runtime. Callers must Close it.
func NewRuntime[T any](cfg Config[T]) (*Runtime[T], error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 8
	}
	if cfg.Route == nil {
		return nil, fmt.Errorf("serve: Config.Route is required")
	}
	if cfg.Process == nil {
		return nil, fmt.Errorf("serve: Config.Process is required")
	}
	r := &Runtime[T]{cfg: cfg, shards: make([]shard[T], cfg.Shards)}
	for i := range r.shards {
		s := &r.shards[i]
		s.in = newSPSC[[]T](cfg.queueDepth)
		// The free ring recycles batch slices back to the producer; it
		// holds every batch that can be in flight plus the two being
		// filled/processed, so steady state never allocates.
		s.free = newSPSC[[]T](cfg.queueDepth + 2)
		s.fill = make([]T, 0, cfg.BatchSize)
		s.wake = make(chan struct{}, 1)
		s.pkts = cfg.Tracer.Counter(fmt.Sprintf("serve.shard%d.packets", i))
		s.batches = cfg.Tracer.Counter(fmt.Sprintf("serve.shard%d.batches", i))
		r.wg.Add(1)
		go r.run(i)
	}
	return r, nil
}

// run is the shard worker loop: pop a batch, process it, recycle the
// slice. After a processing error it keeps draining (and recycling) so
// producers and Drain never wedge, but drops the work.
func (r *Runtime[T]) run(i int) {
	defer r.wg.Done()
	s := &r.shards[i]
	for r.await(s) {
		batch, _ := s.in.tryPop()
		if r.err.Load() == nil {
			// perr is read (not reassigned) by the closure so it is
			// captured by value: reassigning it would force a
			// capture-by-reference heap cell on every iteration.
			if perr := r.cfg.Process(i, batch); perr != nil {
				r.errOnce.Do(func() {
					err := fmt.Errorf("serve: shard %d: %w", i, perr)
					r.err.Store(&err)
				})
			} else {
				s.packets.Add(uint64(len(batch)))
				s.pkts.Add(int64(len(batch)))
				s.batches.Add(1)
			}
		}
		s.handled.Add(1)
		s.free.tryPush(batch[:0]) // ring is sized to always fit
	}
}

// await reports true once shard s's queue holds a batch, false once it
// is closed and drained. An idle worker yields 64 times, taking the
// producer's partial batch when the lock is free, then parks. It stores
// parked before its last look at the queue and pending; producers store
// those before loading parked, and look again after unlocking. It
// never Locks: the holder may be waiting for this worker.
func (r *Runtime[T]) await(s *shard[T]) bool {
	defer s.parked.Store(false)
	for spins := 0; s.in.empty(); spins++ {
		switch {
		case s.in.done.Load():
			return !s.in.empty()
		case s.pending.Load() && r.mu.TryLock():
			r.takeLocked(s)
		case spins < 64:
			runtime.Gosched()
		case !s.parked.Load():
			s.parked.Store(true)
		default:
			<-s.wake
		}
	}
	return true
}

// takeLocked is the worker's hand-off, with mu won by TryLock. It
// pushes only into an empty queue: only this worker drains it, and
// under mu no producer can fill it.
func (r *Runtime[T]) takeLocked(s *shard[T]) {
	if s.in.empty() {
		r.pushLocked(s)
	}
	r.unlock()
}

// Dispatch routes one item to its shard, pushing a full batch when the
// shard's accumulator fills. It blocks only when the shard's queue is
// full (backpressure).
func (r *Runtime[T]) Dispatch(item T) error {
	r.mu.Lock()
	defer r.unlock()
	return r.dispatchLocked(item)
}

// DispatchAll routes a slice of items under one producer-lock
// acquisition — the bulk path the UDP server and benchmarks use.
func (r *Runtime[T]) DispatchAll(items []T) error {
	r.mu.Lock()
	defer r.unlock()
	for i := range items {
		if err := r.dispatchLocked(items[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runtime[T]) dispatchLocked(item T) error {
	if r.closed {
		return fmt.Errorf("serve: runtime is closed")
	}
	n := r.cfg.Route(item)
	if n < 0 || n >= len(r.shards) {
		return fmt.Errorf("serve: route returned shard %d of %d", n, len(r.shards))
	}
	s := &r.shards[n]
	if len(s.fill) == 0 {
		s.pending.Store(true)
	}
	s.fill = append(s.fill, item)
	if len(s.fill) == cap(s.fill) {
		r.pushLocked(s)
	}
	return nil
}

// unlock hands every parked worker with an empty queue its partial
// batch (an empty queue has room, so this never blocks), then releases.
func (r *Runtime[T]) unlock() {
	for i := range r.shards {
		if s := &r.shards[i]; s.parked.Load() && s.in.empty() {
			r.pushLocked(s)
		}
	}
	r.release()
}

// release unlocks, then wakes every worker that parked after the
// hand-off with a batch still pending: it takes the batch itself.
func (r *Runtime[T]) release() {
	r.mu.Unlock()
	for i := range r.shards {
		if s := &r.shards[i]; s.parked.Load() && s.pending.Load() {
			s.signal()
		}
	}
}

func (r *Runtime[T]) pushLocked(s *shard[T]) {
	if len(s.fill) == 0 {
		return
	}
	s.pushed.Add(1)
	s.in.push(s.fill)
	s.pending.Store(false)
	if next, ok := s.free.tryPop(); ok {
		s.fill = next
	} else {
		s.fill = make([]T, 0, r.cfg.BatchSize)
	}
	if s.parked.Load() {
		s.signal()
	}
}

// signal wakes the shard's worker; one pending wake-up is enough.
func (s *shard[T]) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (r *Runtime[T]) flushLocked() {
	for i := range r.shards {
		r.pushLocked(&r.shards[i])
	}
}

// Drain flushes and then blocks until every shard has consumed its
// queue — the runtime is idle when it returns (barring new
// dispatches).
func (r *Runtime[T]) Drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
}

func (r *Runtime[T]) drainLocked() {
	r.flushLocked()
	for i := range r.shards {
		s := &r.shards[i]
		for spins := 0; s.handled.Load() != s.pushed.Load(); spins++ {
			backoff(spins)
		}
	}
}

// Quiesce drains every shard, then runs f while all shard goroutines
// are provably idle (waiting on empty queues) and producers are
// held off by the runtime lock. This is the window in which the
// elastic controller may read and replace per-shard plane state —
// migration reads live planes, so it must not overlap Process. The
// runtime resumes as soon as f returns.
func (r *Runtime[T]) Quiesce(f func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("serve: runtime is closed")
	}
	r.drainLocked()
	return f()
}

// Close flushes remaining batches, stops the shard goroutines, and
// waits for them. It returns the first processing error (also
// available via Err).
func (r *Runtime[T]) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.flushLocked()
		for i := range r.shards {
			r.shards[i].in.close()
			r.shards[i].signal()
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
	return r.Err()
}

// Err returns the first Process error, if any.
func (r *Runtime[T]) Err() error {
	if p := r.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Shards returns the shard count.
func (r *Runtime[T]) Shards() int { return len(r.shards) }

// Packets returns the total items processed across shards.
func (r *Runtime[T]) Packets() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].packets.Load()
	}
	return n
}

// FlowRoute flow-hashes a key to one of n shards — the plain RSS
// spreading rule. Use PartitionRoute instead when the program carries
// a partitioned KVStore and sharded reads must stay bit-identical to
// a single-shard run.
func FlowRoute(n int) func(key uint64) int {
	un := uint64(n)
	return func(key uint64) int { return int(structures.Hash(key, 977) % un) }
}

// PartitionRoute maps a key to a shard by its KVStore partition
// (parts as in the layout's kv_parts): all keys of one partition land
// on one shard, so slot collisions — and therefore admission and
// eviction — happen exactly as they would in a single-shard store,
// and per-shard reads compose to a bit-identical whole-store view.
// The partition hash (seed 977) is the one KVStore.slot uses.
func PartitionRoute(parts, n int) func(key uint64) int {
	up, un := uint64(parts), uint64(n)
	return func(key uint64) int { return int(structures.Hash(key, 977) % up % un) }
}
