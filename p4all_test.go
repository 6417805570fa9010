package p4all_test

import (
	"errors"
	"testing"

	"p4all"
)

func TestPublicAPICompileAndRun(t *testing.T) {
	source := p4all.ComposeModules(
		`header pkt { bit<32> flow; }`,
		p4all.CountMinSketchModule(p4all.ModuleInstance{Prefix: "cms", Key: "pkt.flow"}),
		`
control main {
    apply {
        cms_update.apply();
    }
}
assume cms_rows >= 1 && cms_rows <= 3;
optimize cms_rows * cms_cols;
`)
	res, err := p4all.Compile(source, p4all.EvalTarget(p4all.Mb/4), p4all.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout.Symbolic("cms_rows") < 1 {
		t.Fatalf("rows = %d", res.Layout.Symbolic("cms_rows"))
	}
	if res.P4 == "" {
		t.Error("no generated P4")
	}
	pipe, err := p4all.NewPipeline(res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Process(p4all.Packet{{Name: "pkt.flow", Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if est, ok := p4all.MetaValue(out, "cms_meta.min", -1); !ok || est != 1 {
		t.Errorf("estimate = %d (%v), want 1", est, ok)
	}
}

func TestPublicAPIInfeasible(t *testing.T) {
	source := p4all.ComposeModules(
		`header pkt { bit<32> flow; }`,
		p4all.CountMinSketchModule(p4all.ModuleInstance{Prefix: "cms", Key: "pkt.flow"}),
		`
control main { apply { cms_update.apply(); } }
assume cms_rows >= 100;
optimize cms_rows;
`)
	_, err := p4all.Compile(source, p4all.RunningExampleTarget(), p4all.Options{})
	if !errors.Is(err, p4all.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestPublicAPIModuleFragments(t *testing.T) {
	inst := p4all.ModuleInstance{Prefix: "m", Key: "pkt.flow"}
	for name, frag := range map[string]string{
		"cms":   p4all.CountMinSketchModule(inst),
		"bloom": p4all.BloomFilterModule(inst),
		"kvs":   p4all.KeyValueStoreModule(inst),
		"ht":    p4all.HashTableModule(inst),
	} {
		if frag == "" {
			t.Errorf("%s: empty fragment", name)
		}
	}
}

func TestPublicAPIResolveOnly(t *testing.T) {
	u, err := p4all.ParseAndResolve(`
symbolic int n;
struct meta { bit<8>[n] f; }
action a()[int i] { meta.f[i] = 1; }
control main { apply { for (i < n) { a()[i]; } } }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Symbolics) != 1 {
		t.Errorf("symbolics = %d", len(u.Symbolics))
	}
}

func TestExactOptions(t *testing.T) {
	opts := p4all.Exact()
	if opts.Solver.Gap >= 0 && opts.Solver.Gap != -1 {
		t.Errorf("Exact gap = %v", opts.Solver.Gap)
	}
}
