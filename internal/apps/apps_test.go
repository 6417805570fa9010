package apps

import (
	"strings"
	"testing"
	"time"

	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sim"
	"p4all/internal/tv"
)

func TestAllAppsResolve(t *testing.T) {
	for _, app := range All() {
		u, err := lang.ParseAndResolve(app.Source)
		if err != nil {
			t.Errorf("%s: %v\n%s", app.Name, err, numbered(app.Source))
			continue
		}
		if len(u.Symbolics) == 0 {
			t.Errorf("%s: no symbolic values (not elastic)", app.Name)
		}
		if u.Optimize == nil {
			t.Errorf("%s: missing utility function", app.Name)
		}
	}
}

func TestNetCacheCompiles(t *testing.T) {
	app := NetCache(NetCacheConfig{})
	// The NetCache solve takes ~20s natively but the default 90s
	// solver budget is wall-clock: under the race detector's ~10x
	// slowdown it expires before the dive finds an incumbent. This
	// test asserts the compile is correct, not fast, so give it room.
	opts := core.Options{Solver: ilp.Options{TimeLimit: 30 * time.Minute}}
	res, err := core.Compile(app.Source, pisa.EvalTarget(7*pisa.Mb/4), opts)
	if err != nil {
		t.Fatalf("NetCache: %v", err)
	}
	l := res.Layout
	if l.Symbolic("cms_rows") < 2 {
		t.Errorf("cms_rows = %d, want >= 2", l.Symbolic("cms_rows"))
	}
	if l.Symbolic("kv_parts") < 1 || l.Symbolic("kv_slots") < 1024 {
		t.Errorf("kv sizing: parts=%d slots=%d", l.Symbolic("kv_parts"), l.Symbolic("kv_slots"))
	}
	if audit := tv.Audit(res.Unit, l); audit.Failed() {
		t.Errorf("layout fails the audit: %+v", audit.Checks)
	}
	t.Logf("NetCache layout:\n%s", l)
	t.Logf("phases: %+v (total %v)", res.Phases, res.Phases.Total())
}

func TestSketchLearnCompiles(t *testing.T) {
	app := SketchLearn()
	res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{})
	if err != nil {
		t.Fatalf("SketchLearn: %v", err)
	}
	for l := 0; l < 4; l++ {
		name := "lv" + string(rune('0'+l)) + "_rows"
		if res.Layout.Symbolic(name) < 1 {
			t.Errorf("%s = %d, want >= 1", name, res.Layout.Symbolic(name))
		}
	}
}

func TestPrecisionCompiles(t *testing.T) {
	app := Precision()
	res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{})
	if err != nil {
		t.Fatalf("Precision: %v", err)
	}
	if got := res.Layout.Symbolic("hh_stages"); got < 2 {
		t.Errorf("hh_stages = %d, want >= 2", got)
	}
}

func TestConQuestCompiles(t *testing.T) {
	app := ConQuest()
	res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{})
	if err != nil {
		t.Fatalf("ConQuest: %v", err)
	}
	for q := 0; q < 3; q++ {
		name := "snap" + string(rune('0'+q)) + "_rows"
		if res.Layout.Symbolic(name) < 1 {
			t.Errorf("%s = %d, want >= 1", name, res.Layout.Symbolic(name))
		}
	}
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(l, " "))
		_ = i
		b.WriteByte('\n')
	}
	return b.String()
}

// TestNetCacheEndToEndSimulation compiles NetCache for a reduced
// target and drives query packets through the behavioral pipeline:
// the sketch must track key popularity across packets.
func TestNetCacheEndToEndSimulation(t *testing.T) {
	app := NetCache(NetCacheConfig{})
	tgt := pisa.Target{
		Name: "nc-sim", Stages: 8, MemoryBits: 1 << 16,
		StatefulALUs: 4, StatelessALUs: 32, PHVBits: 8192,
	}
	res, err := core.Compile(app.Source, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sim.New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	// The same key queried repeatedly: the CMS estimate must grow
	// monotonically to the query count.
	var lastEst uint64
	for i := 1; i <= 5; i++ {
		out, err := pipe.Process(sim.Packet{{Name: "query.key", Value: 77}, {Name: "ipv4.dst", Value: 10}})
		if err != nil {
			t.Fatal(err)
		}
		est, ok := sim.Meta(out, "cms_meta.min", -1)
		if !ok {
			t.Fatal("cms_meta.min missing")
		}
		if est < lastEst {
			t.Errorf("estimate shrank: %d -> %d", lastEst, est)
		}
		lastEst = est
	}
	if lastEst != 5 {
		t.Errorf("estimate after 5 queries = %d, want 5", lastEst)
	}
	// KVS registers exist per the layout and are readable.
	parts := int(res.Layout.Symbolic("kv_parts"))
	for i := 0; i < parts; i++ {
		if _, ok := pipe.Register("kv_store", i); !ok {
			t.Errorf("kv_store/%d missing from pipeline", i)
		}
	}
}

func TestFlowRadarCompiles(t *testing.T) {
	app := FlowRadar()
	res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{})
	if err != nil {
		t.Fatalf("FlowRadar: %v", err)
	}
	if got := res.Layout.Symbolic("fr_bf_rows"); got < 1 {
		t.Errorf("fr_bf_rows = %d, want >= 1", got)
	}
	if got := res.Layout.Symbolic("fr_ct_rows"); got < 1 {
		t.Errorf("fr_ct_rows = %d, want >= 1", got)
	}
	if got := res.Layout.Symbolic("fr_ct_cells"); got < 256 {
		t.Errorf("fr_ct_cells = %d, want >= 256", got)
	}
	if audit := tv.Audit(res.Unit, res.Layout); audit.Failed() {
		t.Errorf("layout fails the audit: %+v", audit.Checks)
	}
}

func TestHashPipeCompiles(t *testing.T) {
	app := HashPipe()
	res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb), core.Options{})
	if err != nil {
		t.Fatalf("HashPipe: %v", err)
	}
	if got := res.Layout.Symbolic("hp_stages"); got < 2 {
		t.Errorf("hp_stages = %d, want >= 2", got)
	}
	if got := res.Layout.Symbolic("hp_slots"); got < 256 {
		t.Errorf("hp_slots = %d, want >= 256", got)
	}
}
