package multitenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/obs"
	"p4all/internal/pisa"
)

// mtTarget is sized so the acceptance mix fits but contends: three
// tenants' floors are satisfiable with memory left over to trade.
func mtTarget() pisa.Target {
	return pisa.Target{
		Name: "mt-test", Stages: 8, MemoryBits: 1 << 18,
		StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024,
	}
}

func smallMix() []Tenant {
	return []Tenant{
		{Name: "alpha", Source: modules.StandaloneCMS()},
		{Name: "beta", Source: modules.StandaloneKVS()},
	}
}

// fastOpts bounds the search for tests whose assertions hold for any
// feasible incumbent (floors and assumes are hard constraints).
func fastOpts() Options {
	var o Options
	o.SkipCodegen = true
	o.Solver.NodeLimit = 500
	o.Solver.TimeLimit = 20 * time.Second
	return o
}

// TestCompileTwoTenants: the basic joint pipeline end to end, codegen
// included — each tenant gets its own P4 program mentioning only its
// own registers.
func TestCompileTwoTenants(t *testing.T) {
	mix := smallMix()
	// Identical-slope linear utilities tie at corners; the floors force
	// a genuinely shared pipeline.
	mix[0].MinUtility = 2048
	mix[1].MinUtility = 2048
	res, err := Compile(mix, mtTarget(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("got %d tenant results", len(res.Tenants))
	}
	a, b := res.Tenant("alpha"), res.Tenant("beta")
	if a == nil || b == nil {
		t.Fatal("missing tenant result")
	}
	if a.P4 == "" || b.P4 == "" {
		t.Fatal("codegen skipped unexpectedly")
	}
	if a.Layout.Symbolic("cms_rows") < 1 {
		t.Errorf("alpha cms_rows = %d", a.Layout.Symbolic("cms_rows"))
	}
	if b.Layout.Symbolic("kv_parts") < 1 {
		t.Errorf("beta kv_parts = %d", b.Layout.Symbolic("kv_parts"))
	}
}

// TestCompileAcceptanceMix is the PR's acceptance scenario: NetCache,
// SketchLearn, and the new FlowRadar module mix compile into one
// layout with every tenant's assume floor honored.
func TestCompileAcceptanceMix(t *testing.T) {
	mix := []Tenant{
		{Name: "netcache", Source: apps.NetCache(apps.NetCacheConfig{}).Source},
		{Name: "sketchlearn", Source: apps.SketchLearn().Source},
		{Name: "flowradar", Source: apps.FlowRadar().Source},
	}
	opts := fastOpts()
	opts.Solver.NodeLimit = 1500
	opts.Solver.TimeLimit = 120 * time.Second
	res, err := Compile(mix, pisa.EvalTarget(pisa.Mb), opts)
	if err != nil {
		t.Fatal(err)
	}
	nc := res.Tenant("netcache").Layout
	if nc.Symbolic("cms_rows") < 2 || nc.Symbolic("kv_slots") < 1024 {
		t.Errorf("netcache floors: rows=%d slots=%d", nc.Symbolic("cms_rows"), nc.Symbolic("kv_slots"))
	}
	sl := res.Tenant("sketchlearn").Layout
	for l := 0; l < 4; l++ {
		name := "lv" + string(rune('0'+l)) + "_rows"
		if sl.Symbolic(name) < 1 {
			t.Errorf("sketchlearn %s = %d", name, sl.Symbolic(name))
		}
	}
	fr := res.Tenant("flowradar").Layout
	if fr.Symbolic("fr_ct_rows") < 1 || fr.Symbolic("fr_bf_bits") < 1024 {
		t.Errorf("flowradar floors: ct_rows=%d bf_bits=%d", fr.Symbolic("fr_ct_rows"), fr.Symbolic("fr_bf_bits"))
	}
	// The joint layout respects the physical budgets tenant-summed, to
	// within the solver's relative feasibility tolerance (1e-6 of the
	// budget — about one bit per megabit stage; see JointLayout.Stages).
	slack := int64(res.Target.MemoryBits)/1_000_000 + 1
	for s, use := range res.Layout.Stages {
		if use.MemoryBits > int64(res.Target.MemoryBits)+slack {
			t.Errorf("stage %d over memory: %d (budget %d + slack %d)", s, use.MemoryBits, res.Target.MemoryBits, slack)
		}
	}
	for _, tr := range res.Tenants {
		if tr.Utility <= 0 {
			t.Errorf("tenant %s utility %g", tr.Name, tr.Utility)
		}
	}
}

// TestCompileCertifies: per-tenant translation validation proves each
// tenant's emitted program equivalent to its source at the allocated
// sizes.
func TestCompileCertifies(t *testing.T) {
	res, err := Compile(smallMix(), mtTarget(), Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Certificate == nil {
			t.Fatalf("tenant %s: no certificate", tr.Name)
		}
		if !tr.Certificate.Proved() {
			t.Errorf("tenant %s: verdict %s", tr.Name, tr.Certificate.Verdict)
		}
	}
}

// TestCompileRejectsBadTenants: duplicate and reserved names, and
// negative non-sentinel weights, fail loudly before any solving.
func TestCompileRejectsBadTenants(t *testing.T) {
	tgt := mtTarget()
	cases := map[string][]Tenant{
		"duplicate name": {
			{Name: "a", Source: modules.StandaloneCMS()},
			{Name: "a", Source: modules.StandaloneKVS()},
		},
		"reserved name": {{Name: "joint", Source: modules.StandaloneCMS()}},
		"slash in name": {{Name: "a/b", Source: modules.StandaloneCMS()}},
		"bad weight":    {{Name: "a", Source: modules.StandaloneCMS(), Weight: -0.5}},
		"empty mix":     {},
	}
	for label, mix := range cases {
		if _, err := Compile(mix, tgt, Options{SkipCodegen: true}); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestReweightGrowsFavoredTenant: the drift scenario — same mix, new
// weights — strictly grows the newly-favored tenant through the
// Compiler's warm path.
func TestReweightGrowsFavoredTenant(t *testing.T) {
	tgt := pisa.Target{
		Name: "mt-tight", Stages: 6, MemoryBits: 64 * 1024,
		StatefulALUs: 6, StatelessALUs: 32, PHVBits: 8 * 1024,
	}
	c := NewCompiler(tgt, Options{SkipCodegen: true})
	mix := func(wa, wb float64) []Tenant {
		return []Tenant{
			{Name: "a", Source: modules.StandaloneCMS(), Weight: wa},
			{Name: "b", Source: modules.StandaloneCountingTable(), Weight: wb},
		}
	}
	before, err := c.Compile(mix(1, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Compile(mix(0.25, 1))
	if err != nil {
		t.Fatal(err)
	}
	if after.Tenant("b").Utility <= before.Tenant("b").Utility {
		t.Errorf("favored tenant b did not grow: %g -> %g",
			before.Tenant("b").Utility, after.Tenant("b").Utility)
	}
}

// TestWarmResolveSubSecond pins the elastic-reallocation latency: the
// second compile of the same mix (reweighted) must complete in under a
// second, riding the warm-start pool. The budget is generous against
// CI noise; BenchmarkMultiTenantResolve tracks the real number.
func TestWarmResolveSubSecond(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c := NewCompiler(mtTarget(), Options{SkipCodegen: true})
	mix := func(w float64) []Tenant {
		ts := smallMix()
		ts[1].Weight = w
		return ts
	}
	if _, err := c.Compile(mix(1)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Compile(mix(2)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("warm re-solve took %v, want < 1s", d)
	}
}

// driftMix is the tenant-drift workload's mix: CMS and KVS tenants with
// 2048 floors, the KVS tenant weighted w.
func driftMix(w float64) []Tenant {
	ts := smallMix()
	ts[0].MinUtility = 2048
	ts[1].MinUtility = 2048
	ts[1].Weight = w
	return ts
}

// driftCompiler is a Compiler with the tenant-drift workload's solver
// knobs.
func driftCompiler() *Compiler {
	return NewCompiler(mtTarget(), Options{
		Solver: ilp.Options{
			Gap:       0.1,
			NodeLimit: 1000,
			TimeLimit: 15 * time.Second,
		},
		SkipCodegen: true,
	})
}

// TestDriftFlipBackEndsAtRoot runs the tenant-drift cycle (a cold
// compile at weight 2, nudges to 2.5 and 2, flips to 0.5 and back to
// 2) through the pool. The nudges end at the root on the incumbent,
// reporting the root bound's gap rather than 0. The first flip has no
// pooled layout near its optimum and searches. The flip back starts
// from the layout before last — the nudge's — and ends at the root with
// the nudge's objective. Nothing is keyed on weights: the predecessor
// wins because it scores better under the new objective.
func TestDriftFlipBackEndsAtRoot(t *testing.T) {
	c := driftCompiler()
	if _, err := c.Compile(driftMix(2)); err != nil {
		t.Fatal(err)
	}
	var stats []ilpgen.Stats
	var objs []float64
	for _, w := range []float64{2.5, 2, 0.5, 2} {
		res, err := c.Compile(driftMix(w))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Layout.Stats
		t.Logf("w=%v: %d nodes, start %s, gap %.4f, objective %v", w, st.Nodes, st.Seed(), st.Gap, res.Layout.Objective)
		stats = append(stats, st)
		objs = append(objs, res.Layout.Objective)
	}
	for i, w := range []float64{2.5, 2} {
		if st := stats[i]; st.Nodes != 1 || st.Seed() != "incumbent" || st.Gap <= 0 {
			t.Errorf("nudge to %v: %d nodes, start %s, gap %v; want a root stop on the incumbent at the root bound's nonzero gap", w, st.Nodes, st.Seed(), st.Gap)
		}
	}
	if st := stats[2]; st.Nodes <= 1 {
		t.Errorf("first flip: %d nodes, start %s; want a tree search", st.Nodes, st.Seed())
	}
	if st := stats[3]; st.Nodes != 1 || st.Seed() != "predecessor" {
		t.Errorf("flip back: %d nodes, start %s; want a root stop on the predecessor", st.Nodes, st.Seed())
	}
	if objs[3] != objs[1] {
		t.Errorf("flip back objective %v, want the nudge's %v", objs[3], objs[1])
	}
}

// TestDriftCycleLowersOnce: after the cold compile, two tenant-drift
// cycles (w = 2.5, 2, 0.5, 2 under 2048 floors) re-solve clones of the
// mix's floored model that change only the objective, so the mix is
// lowered once for the solver; a floor change lowers it again. A nudge
// allocates what its root stop needs, not a lowering (4 376 allocations
// a nudge when every re-solve lowered, about 290 since).
func TestDriftCycleLowersOnce(t *testing.T) {
	c := driftCompiler()
	cycle := []float64{2.5, 2, 0.5, 2}
	lowered := 0
	for _, w := range append(append([]float64{2}, cycle...), cycle...) {
		res, err := c.Compile(driftMix(w))
		if err != nil {
			t.Fatal(err)
		}
		if res.Layout.Stats.Lowered {
			lowered++
		}
	}
	if lowered != 1 {
		t.Errorf("the cold compile and two drift cycles lowered %d times, want 1", lowered)
	}

	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		i++
		if _, err := c.Compile(driftMix(cycle[i%2])); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("a nudge allocates %.0f times, want at most 1000", allocs)
	}

	floors := driftMix(2)
	floors[1].MinUtility = 1024
	res, err := c.Compile(floors)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Layout.Stats.Lowered {
		t.Error("a re-solve under new floors reused the old floors' lowering")
	}
}

// TestIsolationAuditedOncePerFloors: check.ModelIsolation reads a floored
// model's rows once. Over a cold compile and a tenant-drift cycle, five
// compiles under one set of floors, only the cold compile's isolate span
// audits, and new floors audit once more. A coupling row planted in the
// retained model reaches the next floored model, and every compile from
// that model is refused before its solve, the first that audits and
// the re-solve that keeps its verdict alike.
func TestIsolationAuditedOncePerFloors(t *testing.T) {
	c := driftCompiler()
	// compile runs the mixes under a tracer and returns how many isolate
	// spans audited and how many solve spans there are.
	compile := func(mixes ...[]Tenant) (audits, solves int, err error) {
		recs := traceRecords(t, func(tr *obs.Tracer) error {
			c.Opts.Tracer = tr
			for _, mix := range mixes {
				if _, err = c.Compile(mix); err != nil {
					return nil
				}
			}
			return nil
		})
		for _, r := range recs {
			switch {
			case r.Kind == "span" && r.Name == "isolate" && r.Attrs["audited"] == true:
				audits++
			case r.Kind == "span" && r.Name == "solve":
				solves++
			}
		}
		return audits, solves, err
	}
	var cycle [][]Tenant
	for _, s := range driftSteps {
		cycle = append(cycle, driftMix(s.w))
	}
	if audits, solves, err := compile(cycle...); err != nil || audits != 1 || solves != len(cycle) {
		t.Fatalf("cold compile and drift cycle: %d audits over %d solves (%v); want 1 over %d", audits, solves, err, len(cycle))
	}
	floors := driftMix(2)
	floors[1].MinUtility = 1024
	if audits, _, err := compile(floors, floors); err != nil || audits != 1 {
		t.Fatalf("new floors, twice: %d audits (%v); want 1", audits, err)
	}

	c.mu.Lock()
	var m *ilp.Model
	for _, mx := range c.mixes {
		m = mx.joint.Model
	}
	c.mu.Unlock()
	vars := map[string]ilp.Var{}
	for v := range m.NumVars() {
		scope, _, _ := strings.Cut(m.VarName(ilp.Var(v)), "/")
		if _, ok := vars[scope]; !ok {
			vars[scope] = ilp.Var(v)
		}
	}
	coupling := ilp.Term(vars["alpha"], 1)
	coupling.Add(vars["beta"], 1)
	m.AddConstr("alpha/planted", coupling, ilp.LE, 1e9)
	floors[1].MinUtility = 512
	for i, want := range []int{1, 0} {
		audits, solves, err := compile(floors)
		if err == nil || !strings.Contains(err.Error(), "violates tenant isolation") || audits != want || solves != 0 {
			t.Errorf("compile %d from a coupled model: %v, %d audits, %d solves; want refused with %d audits and no solve", i, err, audits, solves, want)
		}
	}
}

// TestUnweightedTenant: the Unweighted sentinel compiles the tenant
// without objective stake — and does not reject it.
func TestUnweightedTenant(t *testing.T) {
	mix := smallMix()
	mix[1].Weight = Unweighted
	mix[1].MinUtility = 2048
	res, err := Compile(mix, mtTarget(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Tenant("beta").Utility; u < 2048-1e-6 {
		t.Errorf("unweighted tenant below its floor: %g", u)
	}
}

// TestMaxMinCompile: the max-min mode runs through the full package
// path (distinct model shape: the extra z variable must not poison
// the pool of non-maxmin runs).
func TestMaxMinCompile(t *testing.T) {
	opts := fastOpts()
	opts.MaxMin = true
	res, err := Compile(smallMix(), mtTarget(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Utility <= 0 {
			t.Errorf("max-min starved tenant %s: %g", tr.Name, tr.Utility)
		}
	}
}

// TestBoundsSpanCountsPathEstimates: each tenant's bounds span in a
// joint compile says how many of its §4.2 path criteria were answered
// by the estimate — none, for the shipped modules. The joint solve span
// is core.Solve's: the same attribute keys as a single compile's solve
// span, warm_started included, and the solver.* progress events under
// it.
func TestBoundsSpanCountsPathEstimates(t *testing.T) {
	trace := func(compile func(*obs.Tracer) error) []record { return traceRecords(t, compile) }
	// solve returns the solve span's sorted attribute keys and a count
	// of the events recorded under it.
	solve := func(recs []record) (keys []string, events map[string]int) {
		events = map[string]int{}
		for _, r := range recs {
			if r.Kind != "span" || r.Name != "solve" {
				continue
			}
			for k := range r.Attrs {
				keys = append(keys, k)
			}
			for _, e := range recs {
				if e.Kind == "event" && e.Parent == r.ID {
					events[e.Name]++
				}
			}
		}
		sort.Strings(keys)
		return keys, events
	}

	joint := trace(func(tr *obs.Tracer) error {
		// The floors keep the root LP fractional, so the search has a
		// root event to report.
		mix := smallMix()
		mix[0].MinUtility = 2048
		mix[1].MinUtility = 2048
		opts := fastOpts()
		opts.Tracer = tr
		_, err := Compile(mix, mtTarget(), opts)
		return err
	})
	bounds := 0
	for _, r := range joint {
		if r.Kind == "span" && r.Name == "bounds" {
			bounds++
			if v, ok := r.Attrs["path_estimates"]; !ok || v != 0.0 {
				t.Errorf("bounds span path_estimates = %v, want 0: %+v", v, r.Attrs)
			}
		}
	}
	if bounds != len(smallMix()) {
		t.Errorf("%d bounds spans, want one per tenant (%d)", bounds, len(smallMix()))
	}

	single := trace(func(tr *obs.Tracer) error {
		opts := core.Options{Solver: fastOpts().Solver, SkipCodegen: true, Tracer: tr}
		_, err := core.Compile(modules.StandaloneCMS(), mtTarget(), opts)
		return err
	})
	jointKeys, events := solve(joint)
	singleKeys, _ := solve(single)
	if got, want := strings.Join(jointKeys, " "), strings.Join(singleKeys, " "); got != want {
		t.Errorf("joint solve span attributes\n  %s\nsingle compile's\n  %s", got, want)
	}
	if !slices.Contains(singleKeys, "warm_started") {
		t.Errorf("solve span lacks warm_started: %v", singleKeys)
	}
	if events["solver.root"] == 0 || events["solver.done"] == 0 {
		t.Errorf("joint solve span events %v, want solver.root and solver.done", events)
	}
}

// record is one JSONL trace record.
type record struct {
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
	Value  float64        `json:"value"`
}

// traceRecords runs compile under a JSONL tracer and decodes the trace.
func traceRecords(t *testing.T, compile func(*obs.Tracer) error) []record {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	if err := compile(tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []record
	for dec := json.NewDecoder(&buf); dec.More(); {
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return recs
}

// driftStep is one compile of the tenant-drift cycle: its weight and
// whether its root LP ends at a pooled basis.
var driftSteps = []struct {
	w    float64
	root string
}{
	{2, ilp.RootCold},
	{2.5, ilp.RootPooled},
	{2, ilp.RootPooled},
	{0.5, "rejected (not dual feasible)"},
	{2, ilp.RootPooled},
}

// freshCompile is the joint compile written out from its parts, with
// nothing retained: each tenant's front end, a newly generated model,
// its objective, and the solve seeded with starts.
func freshCompile(t *testing.T, c *Compiler, tenants []Tenant, starts []ilp.Start) *ilpgen.JointLayout {
	t.Helper()
	tus := make([]ilpgen.TenantUnit, len(tenants))
	f := ilpgen.Fairness{MaxMin: c.Opts.MaxMin}
	for i, tn := range tenants {
		front, err := core.Front(tn.Source, c.Target, nil)
		if err != nil {
			t.Fatal(err)
		}
		tus[i] = ilpgen.TenantUnit{Name: tn.Name, Unit: front.Unit, Bounds: front.Bounds}
		w, err := tn.weight()
		if err != nil {
			t.Fatal(err)
		}
		var util lang.Expr
		if tn.Utility != "" {
			if util, err = lang.ParseExpr(tn.Utility); err != nil {
				t.Fatal(err)
			}
		}
		f.Weights = append(f.Weights, w)
		f.MinUtility = append(f.MinUtility, tn.MinUtility)
		f.Utilities = append(f.Utilities, util)
	}
	target := c.Target
	joint, err := ilpgen.GenerateJoint(tus, &target)
	if err != nil {
		t.Fatal(err)
	}
	if err := joint.SetObjective(f); err != nil {
		t.Fatal(err)
	}
	opts := c.Opts.Solver
	opts.Start = starts
	jl, err := joint.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// TestRetainedMatchesFresh runs two re-solve cycles through one
// Compiler each and checks every re-solve against a compile that
// retains nothing, given the starts the Compiler pooled: the retained
// model is the model a fresh compile generates, so objectives, values
// and node counts are equal. The cycles are tenant-drift's reweights of
// a two-tenant mix, and the elastic controller's re-utilities of one
// NetCache tenant on its drift target (the utilities its policy picks
// for a skewed and a flat workload). Each root LP starts as its cycle's
// does: a repeated objective's at the pooled basis, a changed one's
// cold once the basis is rejected.
func TestRetainedMatchesFresh(t *testing.T) {
	type step struct {
		mix  []Tenant
		root string
	}
	var weights []step
	for _, s := range driftSteps {
		weights = append(weights, step{driftMix(s.w), s.root})
	}
	netcache := func(utility string) []Tenant {
		return []Tenant{{Name: "netcache", Source: apps.NetCache(apps.NetCacheConfig{}).Source, Utility: utility}}
	}
	const (
		cmsHeavy = "0.61 * (cms_rows * cms_cols) + 0.39 * (kv_parts * kv_slots)"
		kvHeavy  = "0.30 * (cms_rows * cms_cols) + 0.70 * (kv_parts * kv_slots)"
	)
	cycles := []struct {
		name  string
		c     *Compiler
		steps []step
	}{
		{"tenant-drift", driftCompiler(), weights},
		{"controller", NewCompiler(pisa.Target{
			Name: "drift-test", Stages: 6, MemoryBits: 96 * 1024,
			StatefulALUs: 4, StatelessALUs: 100, PHVBits: 4096,
		}, Options{Solver: ilp.Options{Gap: 0.05}, SkipCodegen: true}), []step{
			{netcache(cmsHeavy), ilp.RootDual},
			{netcache(kvHeavy), "rejected (not dual feasible)"},
			{netcache(kvHeavy), ilp.RootPooled},
			{netcache(cmsHeavy), "rejected (not dual feasible)"},
		}},
	}
	for _, cy := range cycles {
		c := cy.c
		for i, step := range cy.steps {
			var starts []ilp.Start
			c.mu.Lock()
			for _, mx := range c.mixes {
				starts = mx.history.Starts()
			}
			c.mu.Unlock()
			res, err := c.Compile(step.mix)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Layout.Stats
			if res.Retained != (i > 0) || st.RootStart != step.root {
				t.Errorf("%s step %d: retained %v, root %q; want %v, %q", cy.name, i, res.Retained, st.RootStart, i > 0, step.root)
			}
			fresh := freshCompile(t, c, step.mix, starts)
			if res.Layout.Objective != fresh.Objective || st.Nodes != fresh.Stats.Nodes || !slices.Equal(res.Layout.Values, fresh.Values) {
				t.Errorf("%s step %d: retained objective %v in %d nodes, fresh %v in %d (values equal: %v)",
					cy.name, i, res.Layout.Objective, st.Nodes, fresh.Objective, fresh.Stats.Nodes, slices.Equal(res.Layout.Values, fresh.Values))
			}
		}
	}
}

// TestMalformedUtility: a tenant utility that does not parse, names no
// symbolic of the tenant, or is not linear fails the compile with an
// error naming the tenant, and leaves the retained mix usable.
func TestMalformedUtility(t *testing.T) {
	c := NewCompiler(mtTarget(), fastOpts())
	mix := func(utility string) []Tenant {
		return []Tenant{{Name: "alpha", Source: modules.StandaloneCMS(), Utility: utility}}
	}
	first, err := c.Compile(mix(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"cms_rows *", "cms_rows; optimize 1", "no_such_symbolic", "cms_rows * cms_rows"} {
		if _, err := c.Compile(mix(bad)); err == nil || !strings.Contains(err.Error(), "tenant alpha utility") {
			t.Errorf("utility %q: err = %v, want an error naming tenant alpha's utility", bad, err)
		}
	}
	// Doubling the program's own utility keeps its optimum.
	res, err := c.Compile(mix("2 * (cms_rows * cms_cols)"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Tenants[0].Utility, 2*first.Tenants[0].Utility; !res.Retained || got != want {
		t.Errorf("after the errors: retained %v, utility %v; want a retained mix at utility %v", res.Retained, got, want)
	}
}

// objectiveTerms reads a model's objective as a map.
func objectiveTerms(m *ilp.Model) (map[ilp.Var]float64, ilp.Sense) {
	expr, sense := m.Objective()
	terms := map[ilp.Var]float64{}
	expr.Terms(func(v ilp.Var, c float64) { terms[v] = c })
	return terms, sense
}

// TestRetainedNoAliasing: each compile sets its objective and floor rows
// on its own copy of the retained model, so a later compile under other
// weights leaves an earlier Result's model as it was, and the retained
// model itself gets no objective.
func TestRetainedNoAliasing(t *testing.T) {
	c := driftCompiler()
	first, err := c.Compile(driftMix(2))
	if err != nil {
		t.Fatal(err)
	}
	terms, sense := objectiveTerms(first.Joint.Model)
	rows := first.Joint.Model.NumConstrs()
	if _, err := c.Compile(driftMix(0.5)); err != nil {
		t.Fatal(err)
	}
	if after, afterSense := objectiveTerms(first.Joint.Model); !maps.Equal(after, terms) || afterSense != sense {
		t.Errorf("a second compile changed the first result's objective")
	}
	if n := first.Joint.Model.NumConstrs(); n != rows {
		t.Errorf("a second compile changed the first result's rows: %d, was %d", n, rows)
	}
	for _, mx := range c.mixes {
		if terms, _ := objectiveTerms(mx.joint.Model); len(terms) != 0 {
			t.Errorf("the retained model has an objective of %d terms", len(terms))
		}
		if n := mx.joint.Model.NumConstrs(); n != rows-2 {
			t.Errorf("the retained model has %d rows, want the %d of a compile less its two floor rows", n, rows-2)
		}
	}
}

// TestRetainedConcurrent compiles and certifies one mix from several
// goroutines at once, the first compiles included; run it under -race:
// the compiles share the retained model and the tenants' units and
// bounds. Every result meets the floors and is certified, and the
// Compiler retains the mix once.
func TestRetainedConcurrent(t *testing.T) {
	opts := driftCompiler().Opts
	opts.SkipCodegen, opts.Certify = false, true
	c := NewCompiler(mtTarget(), opts)
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(driftSteps))
	for range 2 {
		for _, step := range driftSteps {
			wg.Add(1)
			go func(w float64) {
				defer wg.Done()
				res, err := c.Compile(driftMix(w))
				if err == nil {
					for i, u := range res.Layout.Utilities {
						if u < 2048 {
							err = fmt.Errorf("w=%v: tenant %s utility %v below its floor", w, res.Layout.Names[i], u)
						}
					}
					for _, tr := range res.Tenants {
						if !tr.Certificate.Proved() {
							err = fmt.Errorf("w=%v: tenant %s: certificate %s", w, tr.Name, tr.Certificate.Verdict)
						}
					}
				}
				errs <- err
			}(step.w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if len(c.mixes) != 1 {
		t.Errorf("%d retained mixes, want 1", len(c.mixes))
	}
}

// TestRetainedCertificates: two certified compiles of one mix from one
// Compiler, the second on the retained model from the first's start and
// basis, emit certificates byte-identical to fresh compiles'.
func TestRetainedCertificates(t *testing.T) {
	opts := driftCompiler().Opts
	opts.SkipCodegen, opts.Certify = false, true
	c := NewCompiler(mtTarget(), opts)
	for i := range 2 {
		res, err := c.Compile(driftMix(2))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(driftMix(2), mtTarget(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, tr := range res.Tenants {
			got, err := tr.Certificate.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Tenants[k].Certificate.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Certificate.Proved() || !bytes.Equal(got, want) {
				t.Errorf("compile %d (retained %v), tenant %s: certificate differs from a fresh compile's (proved %v)", i, res.Retained, tr.Name, tr.Certificate.Proved())
			}
		}
	}
}

// TestMixKeyCoversTarget: every field of the Compiler's target enters
// the mix key, so a changed ALU budget generates a fresh model instead
// of solving the one retained for the old budget.
func TestMixKeyCoversTarget(t *testing.T) {
	c := driftCompiler()
	compile := func() *Result {
		t.Helper()
		res, err := c.Compile(driftMix(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compile()
	c.Target.StatefulALUs = 6
	if res := compile(); res.Retained || res.Target.StatefulALUs != 6 {
		t.Errorf("after a stateful-ALU change: retained %v, target has %d stateful ALUs", res.Retained, res.Target.StatefulALUs)
	}
	c.Target.StatefulALUs = mtTarget().StatefulALUs
	if res := compile(); !res.Retained {
		t.Error("the original target's mix was not retained")
	}
	if len(c.mixes) != 2 {
		t.Errorf("%d retained mixes, want 2", len(c.mixes))
	}
}

// TestRetainedTrace: a re-solve's trace says why it has no parse,
// bounds or generate work: its multitenant.compile span is marked
// retained, and its solve span says the root LP started from the pooled
// basis; the solver.root_* counters count both compiles' roots.
func TestRetainedTrace(t *testing.T) {
	recs := traceRecords(t, func(tr *obs.Tracer) error {
		c := driftCompiler()
		c.Opts.Tracer = tr
		for _, w := range []float64{2, 2.5} {
			if _, err := c.Compile(driftMix(w)); err != nil {
				return err
			}
		}
		return nil
	})
	byID := map[uint64]record{}
	for _, r := range recs {
		if r.Kind == "span" {
			byID[r.ID] = r
		}
	}
	var retained []any
	roots := map[string]int{}
	spans := map[bool]map[string]int{false: {}, true: {}}
	counters := map[string]float64{}
	for _, r := range recs {
		switch {
		case r.Kind == "span" && r.Name == "multitenant.compile":
			retained = append(retained, r.Attrs["retained"])
		case r.Kind == "span":
			parent := byID[r.Parent]
			spans[parent.Attrs["retained"] == true][r.Name]++
			if r.Name == "solve" {
				roots[fmt.Sprint(r.Attrs["root"])]++
			}
		case strings.HasPrefix(r.Name, "solver.root_"):
			counters[r.Name] = r.Value
		}
	}
	if !slices.Equal(retained, []any{false, true}) {
		t.Errorf("multitenant.compile retained attributes %v, want [false true]", retained)
	}
	if spans[true]["parse"] != 0 || spans[true]["bounds"] != 0 || spans[false]["parse"] != 2 || spans[false]["bounds"] != 2 {
		t.Errorf("parse and bounds spans: %v on the cold compile, %v on the retained one", spans[false], spans[true])
	}
	if roots["cold"] != 1 || roots["pooled"] != 1 {
		t.Errorf("solve spans' root attributes %v, want one cold and one pooled", roots)
	}
	if counters["solver.root_cold"] != 1 || counters["solver.root_pooled"] != 1 {
		t.Errorf("solver.root_* counters %v, want one cold and one pooled", counters)
	}
}

// TestSolveTraceMatchesStats: the solve span's counts and the solver.*
// counters say what the compile's Layout.Stats says, for both callers of
// core.Solve — a single program's core.Compile (ConQuest, and NetCache,
// whose neighbourhood search after the dive finds its incumbent) and a
// joint warm re-solve (tenant-drift's first flip, which searches a
// tree).
func TestSolveTraceMatchesStats(t *testing.T) {
	for _, app := range []apps.App{apps.ConQuest(), apps.NetCache(apps.NetCacheConfig{})} {
		var single *core.Result
		recs := traceRecords(t, func(tr *obs.Tracer) (err error) {
			opts := core.Options{SkipCodegen: true, Tracer: tr}
			single, err = core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), opts)
			return err
		})
		checkSolveTrace(t, app.Name+" compile", recs, single.Layout.Stats)
		if e := single.Layout.Stats.Effort; app.Name == "NetCache" && (e.DiveFound != 1 || e.NeighbourFound != 1 || e.TreeFound != 0) {
			t.Errorf("NetCache compile: %+v; want the dive's point improved by the neighbourhood search, and no tree incumbent", e)
		}
	}

	c := driftCompiler()
	if _, err := c.Compile(driftMix(2)); err != nil {
		t.Fatal(err)
	}
	var warm *Result
	recs := traceRecords(t, func(tr *obs.Tracer) (err error) {
		c.Opts.Tracer = tr
		warm, err = c.Compile(driftMix(0.5))
		return err
	})
	st := warm.Tenants[0].Layout.Stats
	if !st.WarmStarted || st.TreeIters == 0 {
		t.Fatalf("drift flip: warm started %v, %d tree iterations; want a warm re-solve that searches", st.WarmStarted, st.TreeIters)
	}
	checkSolveTrace(t, "warm re-solve", recs, st)
}

// checkSolveTrace compares the trace of one solve against its Stats:
// every integer attribute of the solve span, and every solver.* counter.
func checkSolveTrace(t *testing.T, label string, recs []record, st ilpgen.Stats) {
	t.Helper()
	t.Logf("%s: %+v", label, st.Effort)
	wantAttrs := map[string]int{
		"ilp_vars": st.Vars, "ilp_constrs": st.Constrs,
		"bnb_nodes": st.Nodes, "simplex_iters": st.SimplexIter, "refactorizations": st.Refactors,
		"dual_iters": st.DualIters, "primal_fallbacks": st.PrimalFallbacks,
		"warm_restarts": st.WarmRestarts, "warm_fallbacks": st.WarmFallbacks,
		"root_iters": st.RootIters, "dive_iters": st.DiveIters, "tree_iters": st.TreeIters,
		"neighbour_iters": st.NeighbourIters, "neighbour_nodes": st.NeighbourNodes,
		"dive_found": st.DiveFound, "neighbour_found": st.NeighbourFound, "tree_found": st.TreeFound,
		"prop_pruned":               st.PropPruned,
		"race_iters":                st.RaceIters,
		"presolve_rows_dropped":     st.Presolve.RowsDropped,
		"presolve_bounds_tightened": st.Presolve.BoundsTightened,
		"presolve_vars_fixed":       st.Presolve.VarsFixed,
	}
	root, _, _ := strings.Cut(st.RootStart, " ")
	wantCounters := map[string]int{"solver.root_" + root: 1}
	for _, name := range []string{"dual_iters", "primal_fallbacks", "warm_restarts", "warm_fallbacks",
		"root_iters", "dive_iters", "tree_iters", "neighbour_iters", "neighbour_nodes",
		"dive_found", "neighbour_found", "tree_found", "prop_pruned", "race_iters",
		"presolve_rows_dropped", "presolve_bounds_tightened", "presolve_vars_fixed"} {
		wantCounters["solver."+name] = wantAttrs[name]
	}
	spans, counters := 0, map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Kind == "span" && r.Name == "solve":
			spans++
			for k, v := range r.Attrs {
				f, numeric := v.(float64)
				if !numeric || k == "objective" || k == "gap" {
					continue
				}
				if want, ok := wantAttrs[k]; !ok || f != float64(want) {
					t.Errorf("%s: solve span %s = %v, Stats say %v (known: %v)", label, k, v, want, ok)
				}
			}
			for k := range wantAttrs {
				if _, ok := r.Attrs[k]; !ok {
					t.Errorf("%s: solve span lacks %s", label, k)
				}
			}
		case r.Kind == "metric" && strings.HasPrefix(r.Name, "solver."):
			counters[r.Name] = true
			if want, ok := wantCounters[r.Name]; !ok || r.Value != float64(want) {
				t.Errorf("%s: counter %s = %v, Stats say %v (known: %v)", label, r.Name, r.Value, want, ok)
			}
		}
	}
	if spans != 1 {
		t.Errorf("%s: %d solve spans, want 1", label, spans)
	}
	for name := range wantCounters {
		if !counters[name] {
			t.Errorf("%s: no %s counter", label, name)
		}
	}
}
