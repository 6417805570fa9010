// Package obs is the compiler's structured observability substrate:
// hierarchical spans, typed counters, and structured events,
// delivered to pluggable sinks (a JSONL trace writer, a human-readable
// summary table, a discarding sink for overhead measurement).
//
// The paper's evaluation (§5, Figures 8 and 11) is entirely about
// where compile time goes — parse vs. ILP generation vs. solve — and
// every later performance PR (parallel solve, compile caching) must
// report against the same measurements. This package is that
// measurement foundation.
//
// Disabled-path cost is a design constraint: a nil *Tracer is the
// disabled tracer, every method on the nil receiver is a no-op, and
// the hot paths (Counter.Add, Span methods) reduce to a single nil
// check. Code under measurement therefore threads a *Tracer
// unconditionally and never guards call sites.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// RecordKind discriminates the records a Sink receives.
type RecordKind uint8

const (
	// KindSpan is a completed span (emitted at End).
	KindSpan RecordKind = iota
	// KindEvent is a point-in-time structured event.
	KindEvent
	// KindMetric is a counter value flushed at Close.
	KindMetric
)

func (k RecordKind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindEvent:
		return "event"
	case KindMetric:
		return "metric"
	default:
		return "unknown"
	}
}

// Record is the unit of data delivered to sinks. Spans fill ID, Start,
// and Duration; events fill Time (and Parent when scoped to a span);
// metrics fill Value.
type Record struct {
	Kind     RecordKind
	Name     string
	ID       uint64 // span id (0 for events/metrics)
	Parent   uint64 // enclosing span id, 0 at root
	Start    time.Time
	Duration time.Duration
	Time     time.Time
	Value    float64
	Attrs    []Attr
}

// Sink consumes observability records. Implementations must tolerate
// concurrent Emit calls.
type Sink interface {
	Emit(r *Record)
	// Close flushes buffered state; the tracer calls it once.
	Close() error
}

// Tracer fans spans, events, and metric flushes out to its sinks. The
// nil *Tracer is the disabled tracer: every method no-ops and
// StartSpan/Counter return nil handles whose methods also no-op.
type Tracer struct {
	sinks  []Sink
	lastID atomic.Uint64

	mu       sync.Mutex
	counters map[string]*Counter
	order    []string // metric registration order for deterministic flush
}

// New builds a tracer over the given sinks. With no sinks it returns
// nil — the disabled tracer — so callers can write
// obs.New(maybeSinks...) unconditionally.
func New(sinks ...Sink) *Tracer {
	if len(sinks) == 0 {
		return nil
	}
	return &Tracer{
		sinks:    sinks,
		counters: make(map[string]*Counter),
	}
}

func (t *Tracer) emit(r *Record) {
	for _, s := range t.sinks {
		s.Emit(r)
	}
}

// StartSpan opens a root span. End must be called to emit it.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, attrs)
}

func (t *Tracer) newSpan(name string, parent uint64, attrs []Attr) *Span {
	return &Span{
		tracer: t,
		name:   name,
		id:     t.lastID.Add(1),
		parent: parent,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// Event emits a root-level structured event.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.emit(&Record{Kind: KindEvent, Name: name, Time: time.Now(), Attrs: attrs})
}

// Counter returns the named monotonic counter, creating it on first
// use. On the nil tracer it returns nil, whose methods no-op.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{name: name}
		t.counters[name] = c
		t.order = append(t.order, name)
	}
	return c
}

// Close flushes every registered counter as a metric record,
// then closes the sinks. It returns the first sink error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := time.Now()
	for _, name := range t.order {
		v := float64(t.counters[name].Value())
		t.emit(&Record{Kind: KindMetric, Name: name, Time: now, Value: v})
	}
	t.mu.Unlock()
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Span is one timed region of work, linked to its parent. The nil
// *Span (from a disabled tracer) no-ops everywhere, so instrumented
// code never branches on enablement.
type Span struct {
	tracer *Tracer
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Child opens a sub-span of s.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id, attrs)
}

// SetAttrs appends attributes to the span (visible when it ends).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event emits a structured event scoped under this span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.emit(&Record{Kind: KindEvent, Name: name, Parent: s.id, Time: time.Now(), Attrs: attrs})
}

// End closes the span and emits its record. Repeated End calls emit
// once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.emit(&Record{
		Kind:     KindSpan,
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	})
}

// Counter is a monotonically increasing metric, safe for concurrent
// use. The nil *Counter no-ops.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
