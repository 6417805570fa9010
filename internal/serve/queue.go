// Lock-free single-producer single-consumer ring, the per-shard batch
// channel. A Go channel would work but costs a mutex/futex round trip
// per operation and allocates in select paths; the ring's push and pop
// are a load, a store, and an index masked into a fixed buffer, which
// keeps the dispatcher→shard hop off the allocator and (in the common
// non-contended case) off the scheduler entirely.

package serve

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spsc is a bounded single-producer single-consumer ring. Exactly one
// goroutine may call push/tryPush and exactly one may call tryPop;
// the Runtime guards its producer side with a mutex so any goroutine
// can dispatch, but the ring itself never sees concurrent producers.
type spsc[T any] struct {
	buf  []T
	mask uint64
	_    [48]byte // keep head and tail on separate cache lines
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte
	done atomic.Bool
}

// newSPSC builds a ring with capacity rounded up to a power of two (at
// least 2, so mask arithmetic works).
func newSPSC[T any](capacity int) *spsc[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &spsc[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// tryPush appends v if there is space, without blocking.
func (q *spsc[T]) tryPush(v T) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// push appends v, waiting in backoff while the ring is full. Nothing
// pushes after close: Close closes the rings under the producer lock,
// after its last push.
func (q *spsc[T]) push(v T) {
	for spins := 0; !q.tryPush(v); spins++ {
		backoff(spins)
	}
}

// tryPop removes the oldest element if one is present.
func (q *spsc[T]) tryPop() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tail.Load() {
		return zero, false
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // drop the ring's reference for GC
	q.head.Store(head + 1)
	return v, true
}

// empty reports whether the ring currently holds no elements.
func (q *spsc[T]) empty() bool { return q.head.Load() == q.tail.Load() }

// close marks the ring finished: the worker exits once it has drained
// what is left.
func (q *spsc[T]) close() { q.done.Store(true) }

// backoff yields the processor, then sleeps so a stalled peer gets
// scheduled. The sleep takes ≈ 1.08 ms on Linux (go1.24), not 20 µs: an
// idle Go runtime waits in epoll_wait, whose timeout counts whole
// milliseconds. Only a full-queue push and Drain wait here.
func backoff(spins int) {
	if spins < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
