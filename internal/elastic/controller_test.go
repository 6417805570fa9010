package elastic

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/tv"
	"p4all/internal/workload"
)

// driftTarget is a small PISA target NetCache compiles against in tens
// of milliseconds — the unit-test analogue of the evaluation target.
func driftTarget() pisa.Target {
	return pisa.Target{
		Name: "drift-test", Stages: 6, MemoryBits: 96 * 1024,
		StatefulALUs: 4, StatelessALUs: 100, PHVBits: 4096,
	}
}

// driftSolver relaxes the certified gap to 5%: on the small drift
// target a 3% certificate for KV-heavy utilities exceeds the node
// limit (the layout is found in a handful of nodes; proving it is the
// expensive part).
func driftSolver() ilp.Options { return ilp.Options{Gap: 0.05} }

var netcacheSource = apps.NetCache(apps.NetCacheConfig{}).Source

// eventSink collects obs event names for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []string
}

func (s *eventSink) Emit(r *obs.Record) {
	if r.Kind == obs.KindEvent {
		s.mu.Lock()
		s.events = append(s.events, r.Name)
		s.mu.Unlock()
	}
}

func (s *eventSink) Close() error { return nil }

func (s *eventSink) has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e == name {
			return true
		}
	}
	return false
}

// servedPlane is the data plane a test controller publishes to: swap
// migrates the plane into an adopted layout with Migrate and bumps the
// epoch, as a one-shard server's SwapLayout does.
type servedPlane struct {
	plane *Plane
	epoch uint64
}

func newServedPlane(t *testing.T, c *Controller) *servedPlane {
	t.Helper()
	p, err := NewPlane(c.Layout())
	if err != nil {
		t.Fatal(err)
	}
	return &servedPlane{plane: p, epoch: 1}
}

func (s *servedPlane) swap(l *ilpgen.Layout, hot []KeyCount) (uint64, int, error) {
	p, dropped, err := Migrate(s.plane, l, hot)
	if err != nil {
		return 0, 0, err
	}
	s.plane = p
	s.epoch++
	return s.epoch, dropped, nil
}

// TestControllerAdoptsOnSkewDrift walks the controller through a
// stable heavy-skew regime and then a flat-workload step. The step
// must trigger a warm-started re-solve whose layout is adopted — and
// the adopted layout must actually shift memory toward the key-value
// store.
func TestControllerAdoptsOnSkewDrift(t *testing.T) {
	sink := &eventSink{}
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
		Tracer:       obs.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	before := c.Layout()
	beforeKV := before.Symbolic("kv_parts") * before.Symbolic("kv_slots")
	for i := 0; i < 3; i++ {
		if dec := c.Observe(window(0.55, 0), sp.swap); dec.Action != ActionNone {
			t.Fatalf("stable window %d: %v (%s)", i, dec.Action, dec.Reason)
		}
	}
	dec := c.Observe(window(0.04, 0), sp.swap)
	if dec.Action != ActionAdopted {
		t.Fatalf("skew step not adopted: %v (%s)", dec.Action, dec.Reason)
	}
	if dec.Stats == nil || !dec.Stats.WarmStarted {
		t.Fatalf("re-solve was not warm-started: %+v", dec.Stats)
	}
	if dec.Diff == nil || dec.Diff.Same() {
		t.Fatalf("adoption with empty diff: %v", dec.Diff)
	}
	if dec.Certificate == nil || !dec.Certificate.Proved() {
		t.Fatalf("adopted a layout without a proved certificate: %+v", dec.Certificate)
	}
	if dec.Epoch != 2 || sp.epoch != 2 {
		t.Fatalf("epoch after adoption = %d (plane %d), want 2", dec.Epoch, sp.epoch)
	}
	after := c.Layout()
	if sp.plane.Layout != after {
		t.Fatal("the adopted layout is not the one swap published")
	}
	afterKV := after.Symbolic("kv_parts") * after.Symbolic("kv_slots")
	if afterKV <= beforeKV {
		t.Fatalf("flat-workload layout did not grow the KV store: %d -> %d items", beforeKV, afterKV)
	}
	if !strings.Contains(c.utility, "0.70") {
		t.Errorf("utility did not shift toward the KV store: %q", c.utility)
	}
	for _, want := range []string{"elastic.drift", "elastic.reoptimize", "elastic.adopt"} {
		if !sink.has(want) {
			t.Errorf("missing obs event %s (got %v)", want, sink.events)
		}
	}
	t.Logf("adopted %v with %d nodes (warm)", dec.Diff, dec.Stats.Nodes)
}

// TestControllerFlipBackStartsFromPredecessor drives the utility
// A → B → A: from a flat workload (a KV-heavy utility) to a skewed one
// (CMS-heavy) and back. The re-solve back to A must be seeded by the
// layout B replaced — the initial one, solved under A — not by B's
// incumbent. (The CMS-heavy utility's root LP is integral on this
// target, so only a flip back to the KV-heavy one consults its starts.)
func TestControllerFlipBackStartsFromPredecessor(t *testing.T) {
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.04,
		Solver:       driftSolver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	initial := c.utility
	for i := 0; i < 3; i++ {
		c.Observe(window(0.04, 0), sp.swap)
	}
	if dec := c.Observe(window(0.55, 0), sp.swap); dec.Action != ActionAdopted {
		t.Fatalf("step to B not adopted: %v (%s)", dec.Action, dec.Reason)
	}
	for i := 0; i < 2; i++ { // the detector's cooldown
		c.Observe(window(0.55, 0), sp.swap)
	}
	dec := c.Observe(window(0.04, 0), sp.swap)
	if dec.Utility != initial {
		t.Fatalf("step back re-solved under %q, want the initial %q", dec.Utility, initial)
	}
	if dec.Stats == nil || dec.Stats.Seed() != "predecessor" {
		t.Fatalf("step back was not seeded by the predecessor: %+v", dec.Stats)
	}
	if dec.Action != ActionAdopted {
		t.Fatalf("step back not adopted: %v (%s)", dec.Action, dec.Reason)
	}
	t.Logf("step back: %d nodes, gap %.4f", dec.Stats.Nodes, dec.Stats.Gap)
}

// TestControllerFallsBackOnSolverTimeout starves the re-solve of time
// and requires the controller to keep the incumbent and record the
// fallback — the graceful-degradation contract.
func TestControllerFallsBackOnSolverTimeout(t *testing.T) {
	sink := &eventSink{}
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
		Tracer:       obs.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	before := c.Layout()
	beforeUtility := c.utility
	// Starve only the re-solves: the initial compile above ran with
	// the defaults.
	c.compiler.Opts.Solver.TimeLimit = time.Nanosecond

	for i := 0; i < 3; i++ {
		c.Observe(window(0.55, 0), sp.swap)
	}
	dec := c.Observe(window(0.04, 0), sp.swap)
	if dec.Action != ActionKept {
		t.Fatalf("timeout re-solve was not kept: %v (%s)", dec.Action, dec.Reason)
	}
	if !sink.has("elastic.fallback") {
		t.Fatalf("no elastic.fallback event recorded (got %v)", sink.events)
	}
	if c.Layout() != before {
		t.Fatal("fallback replaced the incumbent layout")
	}
	if c.utility != beforeUtility {
		t.Fatal("fallback changed the incumbent utility")
	}
	if sp.epoch != 1 {
		t.Fatalf("fallback bumped the epoch to %d", sp.epoch)
	}
}

// TestControllerKeepsIncumbentOnFailedSwap: a certified, improving
// re-solve whose swap fails must leave everything as it was — the
// incumbent layout and utility, the caller's epoch — and say why.
func TestControllerKeepsIncumbentOnFailedSwap(t *testing.T) {
	sink := &eventSink{}
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
		Tracer:       obs.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	before := c.Layout()
	beforeUtility := c.utility
	swaps := 0
	failing := func(l *ilpgen.Layout, hot []KeyCount) (uint64, int, error) {
		swaps++
		return 0, 0, errors.New("shard 0: no memory")
	}
	for i := 0; i < 3; i++ {
		c.Observe(window(0.55, 0), failing)
	}
	dec := c.Observe(window(0.04, 0), failing)
	if swaps != 1 {
		t.Fatalf("swap called %d times, want once", swaps)
	}
	if dec.Action != ActionKept || dec.Reason != "migration failed: shard 0: no memory" {
		t.Fatalf("failed swap: %v (%s), want kept with the migration error", dec.Action, dec.Reason)
	}
	if !sink.has("elastic.fallback") || sink.has("elastic.adopt") {
		t.Fatalf("want an elastic.fallback event and no elastic.adopt (got %v)", sink.events)
	}
	if c.Layout() != before || c.utility != beforeUtility {
		t.Fatal("a failed swap replaced the incumbent")
	}
	if dec.Epoch != 0 || sp.epoch != 1 {
		t.Fatalf("failed swap moved the epoch: decision %d, plane %d", dec.Epoch, sp.epoch)
	}
}

// TestControllerKeepsIncumbentOnUncertifiedLayout corrupts the
// re-solved layout after the compiler certified it — one placement
// moves a stage — and re-validates. The controller must refuse the
// layout the validator no longer proves: keep the incumbent plane and
// epoch, say why, and record the fallback.
func TestControllerKeepsIncumbentOnUncertifiedLayout(t *testing.T) {
	sink := &eventSink{}
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
		Tracer:       obs.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	before := c.Layout()
	beforeUtility := c.utility
	c.resolved = func(mix *multitenant.Result) {
		res := mix.Tenants[0]
		if !res.Certificate.Proved() {
			t.Errorf("the untampered re-solve did not certify: %v", res.Certificate.Failures())
		}
		pl := &res.Layout.Placements[0]
		pl.Stage = (pl.Stage + 1) % res.Target.Stages
		res.Certificate = tv.Validate(res.Unit, res.Layout, res.Concrete, tv.Options{})
	}
	for i := 0; i < 3; i++ {
		c.Observe(window(0.55, 0), sp.swap)
	}
	dec := c.Observe(window(0.04, 0), sp.swap)
	if dec.Action != ActionKept || !strings.HasPrefix(dec.Reason, "uncertified: ") {
		t.Fatalf("tampered layout: %v (%s), want kept as uncertified", dec.Action, dec.Reason)
	}
	if dec.Certificate == nil || dec.Certificate.Proved() {
		t.Fatalf("decision does not carry the failed certificate: %+v", dec.Certificate)
	}
	if !sink.has("elastic.fallback") {
		t.Fatalf("no elastic.fallback event recorded (got %v)", sink.events)
	}
	if c.Layout() != before || c.utility != beforeUtility {
		t.Fatal("an uncertified layout replaced the incumbent")
	}
	if sp.epoch != 1 || dec.Epoch != 0 {
		t.Fatalf("uncertified re-solve moved the epoch: plane %d, decision %d", sp.epoch, dec.Epoch)
	}
	t.Log(dec.Reason)
}

// TestControllerKeepsUnchangedLayout: a churn-only trigger at the same
// skew re-solves under the same utility and must not swap, since the
// layout cannot change. The re-solve's root LP ends at the initial
// compile's pooled basis, which is still optimal.
func TestControllerKeepsUnchangedLayout(t *testing.T) {
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := newServedPlane(t, c)
	for i := 0; i < 3; i++ {
		c.Observe(window(0.55, 0), sp.swap)
	}
	dec := c.Observe(window(0.55, 5000), sp.swap) // rotated hot set, same skew
	if dec.Drift.Reason != "churn" {
		t.Fatalf("expected churn trigger, got %v", dec.Drift)
	}
	if dec.Action != ActionKept {
		t.Fatalf("churn at unchanged utility: %v (%s)", dec.Action, dec.Reason)
	}
	if sp.epoch != 1 {
		t.Fatalf("no-op re-solve bumped the epoch to %d", sp.epoch)
	}
	if dec.Stats.RootStart != ilp.RootPooled {
		t.Errorf("churn re-solve root %q, want %q", dec.Stats.RootStart, ilp.RootPooled)
	}
}

// TestControllerServesTrafficAcrossAdoption runs real packets through
// the plane across a migration and checks the hit rate improves after
// the controller adapts — the end-to-end story in miniature. Every
// re-solve edits the retained model: it runs no parse and no bounds.
func TestControllerServesTrafficAcrossAdoption(t *testing.T) {
	c, err := New(Config{
		Target:       driftTarget(),
		Source:       netcacheSource,
		InitialShare: 0.55,
		Solver:       driftSolver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := 0
	c.resolved = func(mix *multitenant.Result) {
		resolves++
		if !mix.Retained || mix.Phases.Parse != 0 || mix.Phases.Bounds != 0 {
			t.Errorf("re-solve %d: retained %v, parse %v, bounds %v; want a retained model", resolves, mix.Retained, mix.Phases.Parse, mix.Phases.Bounds)
		}
	}
	sp := newServedPlane(t, c)
	const windowLen = 20000
	serve := func(keys []uint64) WindowStats {
		p := sp.plane
		hits := 0
		for _, k := range keys {
			if _, hit, _ := p.ServeGet(k, 8); hit {
				hits++
			}
		}
		return Summarize(keys, hits, 64, 256)
	}
	stream := workload.ZipfDriftKeys(3, 50000, []workload.DriftPhase{
		{Skew: 1.1, Requests: 5 * windowLen},
		{Skew: 0.5, Requests: 10 * windowLen},
	})
	adopted := false
	var lastHit float64
	for off := 0; off+windowLen <= len(stream); off += windowLen {
		w := serve(stream[off : off+windowLen])
		dec := c.Observe(w, sp.swap)
		if dec.Action == ActionAdopted {
			adopted = true
		}
		lastHit = w.HitRate()
	}
	if !adopted {
		t.Fatal("controller never adopted across the skew step")
	}
	if resolves < 2 {
		t.Errorf("%d re-solves, want at least 2", resolves)
	}
	if lastHit < 0.15 {
		t.Errorf("steady-state hit rate %.3f after adaptation, want >= 0.15", lastHit)
	}
	t.Logf("final-window hit rate %.3f", lastHit)
}
