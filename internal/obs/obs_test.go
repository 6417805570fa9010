package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// collectSink records everything emitted, for assertions.
type collectSink struct {
	mu      sync.Mutex
	records []Record
	closed  bool
}

func (c *collectSink) Emit(r *Record) {
	c.mu.Lock()
	c.records = append(c.records, *r)
	c.mu.Unlock()
}

func (c *collectSink) Close() error { c.closed = true; return nil }

func (c *collectSink) byKind(k RecordKind) []Record {
	var out []Record
	for _, r := range c.records {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func TestNilTracerIsFullyDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("root", Int("n", 1))
	sp.SetAttrs(String("k", "v"))
	sp.Event("ev")
	child := sp.Child("child")
	child.End()
	sp.End()
	tr.Event("ev2")
	tr.Counter("c").Add(5)
	if got := tr.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if New() != nil {
		t.Fatal("New with no sinks should be the nil (disabled) tracer")
	}
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	root := tr.StartSpan("compile", String("target", "eval"))
	child := root.Child("solve")
	child.SetAttrs(Int("nodes", 42))
	child.Event("incumbent", Float("objective", 1.5))
	child.End()
	child.End() // second End must not double-emit
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := sink.byKind(KindSpan)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	solve, compile := spans[0], spans[1]
	if solve.Name != "solve" || compile.Name != "compile" {
		t.Fatalf("span order: %s, %s", solve.Name, compile.Name)
	}
	if solve.Parent != compile.ID {
		t.Fatalf("child parent = %d, want %d", solve.Parent, compile.ID)
	}
	if compile.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", compile.Parent)
	}
	if len(solve.Attrs) != 1 || solve.Attrs[0].Key != "nodes" || solve.Attrs[0].Value() != int64(42) {
		t.Fatalf("solve attrs = %+v", solve.Attrs)
	}
	events := sink.byKind(KindEvent)
	if len(events) != 1 || events[0].Parent != solve.ID {
		t.Fatalf("events = %+v", events)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}
}

func TestCountersAndGauges(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	c := tr.Counter("packets")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Fatalf("counter = %d, want 800", c.Value())
	}
	if tr.Counter("packets") != c {
		t.Fatal("Counter not memoized by name")
	}
	tr.Counter("drops").Add(3)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	metrics := sink.byKind(KindMetric)
	if len(metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(metrics))
	}
	if metrics[0].Name != "packets" || metrics[0].Value != 800 {
		t.Fatalf("metric[0] = %+v", metrics[0])
	}
	if metrics[1].Name != "drops" || metrics[1].Value != 3 {
		t.Fatalf("metric[1] = %+v", metrics[1])
	}
}

func TestJSONLSinkFormat(t *testing.T) {
	var buf strings.Builder
	tr := New(NewJSONLSink(&buf))
	sp := tr.StartSpan("compile", String("target", "eval"))
	sp.SetAttrs(Int("ilp_vars", 120), Duration("budget", 90*time.Second), Bool("ok", true))
	sp.Event("solver.incumbent", Float("objective", 2.5))
	sp.End()
	tr.Counter("lines").Add(3)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]interface{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (event, span, metric)", len(lines))
	}
	ev, span, metric := lines[0], lines[1], lines[2]
	if ev["kind"] != "event" || ev["name"] != "solver.incumbent" {
		t.Fatalf("event line = %v", ev)
	}
	if ev["attrs"].(map[string]interface{})["objective"] != 2.5 {
		t.Fatalf("event attrs = %v", ev["attrs"])
	}
	if span["kind"] != "span" || span["name"] != "compile" {
		t.Fatalf("span line = %v", span)
	}
	attrs := span["attrs"].(map[string]interface{})
	if attrs["ilp_vars"] != float64(120) || attrs["ok"] != true || attrs["target"] != "eval" {
		t.Fatalf("span attrs = %v", attrs)
	}
	if attrs["budget"] != float64(90*time.Second) {
		t.Fatalf("duration attr = %v, want ns int", attrs["budget"])
	}
	if _, err := time.Parse(time.RFC3339Nano, span["start"].(string)); err != nil {
		t.Fatalf("span start %q not RFC3339Nano: %v", span["start"], err)
	}
	if span["dur_ns"] == nil {
		t.Fatal("span missing dur_ns")
	}
	if metric["kind"] != "metric" || metric["name"] != "lines" || metric["value"] != float64(3) {
		t.Fatalf("metric line = %v", metric)
	}
}

func TestSummarySink(t *testing.T) {
	var buf strings.Builder
	tr := New(NewSummarySink(&buf))
	for i := 0; i < 3; i++ {
		sp := tr.StartSpan("solve")
		sp.End()
	}
	tr.Event("solver.incumbent")
	tr.Event("solver.incumbent")
	tr.Counter("bnb_nodes").Add(17)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"observability summary", "solve", "solver.incumbent", "bnb_nodes", "17"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkDisabledSpan measures the nil-tracer fast path the compiler
// rides when tracing is off (acceptance: near-zero overhead).
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("phase")
		sp.SetAttrs(Int("n", i))
		sp.End()
	}
}

// BenchmarkDisabledCounter measures the nil counter hot path.
func BenchmarkDisabledCounter(b *testing.B) {
	var tr *Tracer
	c := tr.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNopSpan measures enabled-path span cost without
// serialization.
func BenchmarkNopSpan(b *testing.B) {
	tr := New(NopSink{})
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("phase")
		sp.End()
	}
}
