package modules

import (
	"fmt"
	"strings"
	"testing"

	"p4all/internal/core"
	"p4all/internal/lang"
	"p4all/internal/pisa"
)

func TestAllModulesResolveStandalone(t *testing.T) {
	cases := map[string]string{
		"cms":       StandaloneCMS(),
		"bloom":     StandaloneBloom(),
		"kvs":       StandaloneKVS(),
		"hashtable": StandaloneHashTable(),
	}
	for name, src := range cases {
		u, err := lang.ParseAndResolve(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(u.Symbolics) != 2 {
			t.Errorf("%s: %d symbolics, want 2", name, len(u.Symbolics))
		}
		if len(u.Loops) < 1 {
			t.Errorf("%s: no elastic loops", name)
		}
	}
}

func TestAllModulesCompile(t *testing.T) {
	tgt := pisa.Target{
		Name: "module-test", Stages: 8, MemoryBits: 1 << 16,
		StatefulALUs: 4, StatelessALUs: 16, PHVBits: 8192,
	}
	cases := map[string]struct {
		src      string
		countSym string
		cellsSym string
	}{
		"cms":       {StandaloneCMS(), "cms_rows", "cms_cols"},
		"bloom":     {StandaloneBloom(), "bf_rows", "bf_bits"},
		"kvs":       {StandaloneKVS(), "kv_parts", "kv_slots"},
		"hashtable": {StandaloneHashTable(), "ht_stages", "ht_slots"},
	}
	for name, tc := range cases {
		res, err := core.Compile(tc.src, tgt, core.Options{SkipCodegen: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		count := res.Layout.Symbolic(tc.countSym)
		cells := res.Layout.Symbolic(tc.cellsSym)
		if count < 1 || cells < 1 {
			t.Errorf("%s: degenerate layout %s=%d %s=%d", name, tc.countSym, count, tc.cellsSym, cells)
		}
		t.Logf("%s: %s=%d %s=%d (gap %.2f%%)", name, tc.countSym, count, tc.cellsSym, cells, 100*res.Layout.Stats.Gap)
	}
}

func TestPrefixIsolation(t *testing.T) {
	// Two CMS instances under different prefixes must not collide.
	src := Compose(
		FlowHeader,
		CountMinSketch(Instance{Prefix: "a", Key: "pkt.flow"}),
		CountMinSketch(Instance{Prefix: "b", Key: "pkt.flow", Seed: 8}),
		`
control main {
    apply {
        a_update.apply();
        b_update.apply();
    }
}
optimize a_rows * a_cols + b_rows * b_cols;
`)
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatalf("composition failed: %v", err)
	}
	for _, want := range []string{"a_rows", "a_cols", "b_rows", "b_cols"} {
		if u.SymbolicByName(want) == nil {
			t.Errorf("missing symbolic %s", want)
		}
	}
	if u.RegisterByName("a_sketch") == nil || u.RegisterByName("b_sketch") == nil {
		t.Error("register instances not isolated by prefix")
	}
}

func TestSeedAppearsInHash(t *testing.T) {
	frag := CountMinSketch(Instance{Prefix: "x", Key: "pkt.flow", Seed: 40})
	if !strings.Contains(frag, "hash(pkt.flow, i + 40)") {
		t.Errorf("seed not threaded into hash call:\n%s", frag)
	}
}

func TestWidthParameter(t *testing.T) {
	frag := KeyValueStore(Instance{Prefix: "kv", Key: "q.k", Width: 64})
	if !strings.Contains(frag, "register<bit<64>>") {
		t.Error("width parameter not applied to register")
	}
	if !strings.Contains(frag, "bit<64>[kv_parts] word") {
		t.Error("width parameter not applied to metadata")
	}
	def := KeyValueStore(Instance{Prefix: "kv", Key: "q.k"})
	if !strings.Contains(def, "register<bit<32>>") {
		t.Error("default width should be 32")
	}
}

// TestHierarchicalSketchModule stacks three count-min sketch instances
// SketchLearn-style, one prefix and hash seed per level, and checks the
// composition resolves to two symbolics per level and compiles.
func TestHierarchicalSketchModule(t *testing.T) {
	var frags, applies, utils []string
	for l := 0; l < 3; l++ {
		in := Instance{Prefix: fmt.Sprintf("hs_lv%d", l), Key: "pkt.flow", Seed: 8 * l}
		frags = append(frags, CountMinSketch(in))
		applies = append(applies, in.Prefix+"_update.apply();")
		utils = append(utils, in.Prefix+"_rows * "+in.Prefix+"_cols")
	}
	src := Compose(FlowHeader, Compose(frags...), `
control main {
    apply {
        `+strings.Join(applies, "\n        ")+`
    }
}
assume hs_lv0_rows >= 1 && hs_lv0_rows <= 2;
assume hs_lv1_rows >= 1 && hs_lv1_rows <= 2;
assume hs_lv2_rows >= 1 && hs_lv2_rows <= 2;
optimize `+strings.Join(utils, " + ")+`;
`)
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatalf("hierarchical sketch composition: %v", err)
	}
	if len(u.Symbolics) != 6 {
		t.Errorf("symbolics = %d, want 6 (rows+cols per level)", len(u.Symbolics))
	}
	tgt := pisa.Target{Name: "hs", Stages: 10, MemoryBits: 1 << 16, StatefulALUs: 4, StatelessALUs: 32, PHVBits: 8192}
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hs_lv0_rows", "hs_lv1_rows", "hs_lv2_rows"} {
		if res.Layout.Symbolic(name) < 1 {
			t.Errorf("%s = %d", name, res.Layout.Symbolic(name))
		}
	}
}

func TestIDTableModule(t *testing.T) {
	src := StandaloneIDTable()
	tgt := pisa.Target{Name: "idt", Stages: 4, MemoryBits: 1 << 14, StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096}
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Layout.Symbolic("idt_size"); got != (1<<14)/32 {
		t.Errorf("idt_size = %d, want %d (one full stage)", got, (1<<14)/32)
	}
}
