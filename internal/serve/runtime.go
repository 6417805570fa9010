// Package serve is the sharded multi-core serving runtime: an
// RSS-style dispatcher that flow-hashes traffic across N shards, each
// owning a private batch queue and private data-plane state, so the
// single-goroutine zero-alloc replay engine (internal/sim) scales out
// with no lock inside a pipeline: the one lock a packet meets is its
// shard queue's.
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
	// 8). Tests shrink it to reach a full queue.
	queueDepth int
}

// shard is one worker's queue. Producers append to queue and the
// worker swaps it for spare, both under mu; cond wakes whichever side
// waits: the worker on an empty queue, a producer on a full one, Drain
// on a busy worker.
type shard[T any] struct {
	mu      sync.Mutex
	cond    sync.Cond
	queue   []T  // items dispatched and not yet taken
	spare   []T  // the worker's batch while busy, then the next queue
	busy    bool // the worker is processing what it took
	closed  bool
	packets atomic.Uint64
	pkts    *obs.Counter
	batches *obs.Counter
}

// Runtime fans items out to per-shard worker goroutines. Dispatch,
// Drain, Quiesce, and Close are safe to call from any goroutine (a
// mutex serializes producers); Process runs only on the shard's own
// goroutine, which is what lets it own sim.Pipeline state without
// synchronization. A batch waits for a busy worker, never for a timer.
type Runtime[T any] struct {
	cfg    Config[T]
	limit  int // queue length at which producers wait
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
	r := &Runtime[T]{cfg: cfg, limit: cfg.queueDepth * cfg.BatchSize, shards: make([]shard[T], cfg.Shards)}
	for i := range r.shards {
		s := &r.shards[i]
		s.cond.L = &s.mu
		// A queue never outgrows limit, so neither slice ever grows:
		// steady state does not allocate.
		s.queue = make([]T, 0, r.limit)
		s.spare = make([]T, 0, r.limit)
		s.pkts = cfg.Tracer.Counter(fmt.Sprintf("serve.shard%d.packets", i))
		s.batches = cfg.Tracer.Counter(fmt.Sprintf("serve.shard%d.batches", i))
		r.wg.Add(1)
		go r.run(i)
	}
	return r, nil
}

// run is the shard worker loop: take everything queued, process it in
// batches of at most BatchSize, repeat; exit once closed and empty.
func (r *Runtime[T]) run(i int) {
	defer r.wg.Done()
	s := &r.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			return
		}
		if len(s.queue) >= r.limit {
			s.cond.Broadcast() // a producer may wait for room
		}
		taken := s.queue
		s.queue, s.spare = s.spare[:0], taken
		s.busy = true
		s.mu.Unlock()
		for len(taken) > 0 {
			n := min(len(taken), r.cfg.BatchSize)
			r.process(i, s, taken[:n])
			taken = taken[n:]
		}
		s.mu.Lock()
		s.busy = false
		s.cond.Broadcast()
	}
}

// process runs one batch. After a processing error it drops the work,
// so producers and Drain never wedge.
func (r *Runtime[T]) process(i int, s *shard[T], batch []T) {
	if r.err.Load() != nil {
		return
	}
	// perr is read (not reassigned) by the closure so it is captured
	// by value: reassigning it would force a capture-by-reference heap
	// cell on every call.
	if perr := r.cfg.Process(i, batch); perr != nil {
		r.errOnce.Do(func() {
			err := fmt.Errorf("serve: shard %d: %w", i, perr)
			r.err.Store(&err)
		})
		return
	}
	s.packets.Add(uint64(len(batch)))
	s.pkts.Add(int64(len(batch)))
	s.batches.Add(1)
}

// Dispatch routes one item to its shard's queue. It blocks only when
// that queue is full (backpressure).
func (r *Runtime[T]) Dispatch(item T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dispatchLocked(item)
}

// DispatchAll routes a slice of items under one producer-lock
// acquisition — the bulk path of benchmarks and the drift replay (the
// UDP server calls Dispatch, one datagram at a time). If an item routes
// out of range, the items before it are dispatched and the error is
// returned.
func (r *Runtime[T]) DispatchAll(items []T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	s.mu.Lock()
	for len(s.queue) >= r.limit {
		s.cond.Wait()
	}
	s.queue = append(s.queue, item)
	if len(s.queue) == 1 {
		s.cond.Broadcast() // the worker may wait on an empty queue
	}
	s.mu.Unlock()
	return nil
}

// Drain blocks until every shard has processed everything dispatched
// to it — the runtime is idle when it returns (barring new
// dispatches).
func (r *Runtime[T]) Drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
}

func (r *Runtime[T]) drainLocked() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for len(s.queue) > 0 || s.busy {
			s.cond.Wait()
		}
		s.mu.Unlock()
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

// Close stops the shard goroutines once they have processed what is
// queued, and waits for them. It returns the first processing error
// (also available via Err).
func (r *Runtime[T]) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		for i := range r.shards {
			s := &r.shards[i]
			s.mu.Lock()
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
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
