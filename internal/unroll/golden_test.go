package unroll

import (
	"fmt"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// shippedPrograms are the twelve programs the repo ships: the five
// applications, HashPipe, and the six standalone modules.
func shippedPrograms() [][2]string {
	var progs [][2]string
	for _, a := range append(apps.All(), apps.FlowRadar(), apps.HashPipe()) {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	return append(progs,
		[2]string{"StandaloneCMS", modules.StandaloneCMS()},
		[2]string{"StandaloneBloom", modules.StandaloneBloom()},
		[2]string{"StandaloneKVS", modules.StandaloneKVS()},
		[2]string{"StandaloneHashTable", modules.StandaloneHashTable()},
		[2]string{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		[2]string{"StandaloneIDTable", modules.StandaloneIDTable()},
	)
}

// goldenTargets are the three built-in targets plus the multi-tenant
// tests' 8-stage "mt-test".
func goldenTargets() []pisa.Target {
	return []pisa.Target{
		pisa.EvalTarget(pisa.Mb),
		pisa.RunningExampleTarget(),
		pisa.TofinoLike(),
		{Name: "mt-test", Stages: 8, MemoryBits: 1 << 18, StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024},
	}
}

// goldenBounds lists, per program and target, each loop symbolic's
// K/Why/Graphs in first-appearance order. Recorded at commit e4c8e12,
// before the longest-path search was bounded: a change to the search
// must leave every row as it is.
var goldenBounds = [][3]string{
	{"NetCache", "tofino-eval", "cms_rows=4/assume/4 kv_parts=9/path/10"},
	{"NetCache", "running-example", "cms_rows=0/memory/1 kv_parts=0/memory/1"},
	{"NetCache", "tofino-like", "cms_rows=4/assume/4 kv_parts=11/path/12"},
	{"NetCache", "mt-test", "cms_rows=4/assume/4 kv_parts=7/path/8"},
	{"SketchLearn", "tofino-eval", "lv0_rows=2/assume/2 lv1_rows=2/assume/2 lv2_rows=2/assume/2 lv3_rows=2/assume/2"},
	{"SketchLearn", "running-example", "lv0_rows=0/memory/1 lv1_rows=0/memory/1 lv2_rows=0/memory/1 lv3_rows=0/memory/1"},
	{"SketchLearn", "tofino-like", "lv0_rows=2/assume/2 lv1_rows=2/assume/2 lv2_rows=2/assume/2 lv3_rows=2/assume/2"},
	{"SketchLearn", "mt-test", "lv0_rows=2/assume/2 lv1_rows=2/assume/2 lv2_rows=2/assume/2 lv3_rows=2/assume/2"},
	{"Precision", "tofino-eval", "hh_stages=6/assume/6"},
	{"Precision", "running-example", "hh_stages=0/memory/1"},
	{"Precision", "tofino-like", "hh_stages=6/assume/6"},
	{"Precision", "mt-test", "hh_stages=6/assume/6"},
	{"ConQuest", "tofino-eval", "snap0_rows=2/assume/2 snap1_rows=2/assume/2 snap2_rows=2/assume/2"},
	{"ConQuest", "running-example", "snap0_rows=0/memory/1 snap1_rows=0/memory/1 snap2_rows=0/memory/1"},
	{"ConQuest", "tofino-like", "snap0_rows=2/assume/2 snap1_rows=2/assume/2 snap2_rows=2/assume/2"},
	{"ConQuest", "mt-test", "snap0_rows=2/assume/2 snap1_rows=2/assume/2 snap2_rows=2/assume/2"},
	{"FlowRadar", "tofino-eval", "fr_bf_rows=3/assume/3 fr_ct_rows=3/assume/3"},
	{"FlowRadar", "running-example", "fr_bf_rows=0/memory/1 fr_ct_rows=0/memory/1"},
	{"FlowRadar", "tofino-like", "fr_bf_rows=3/assume/3 fr_ct_rows=3/assume/3"},
	{"FlowRadar", "mt-test", "fr_bf_rows=3/assume/3 fr_ct_rows=3/assume/3"},
	{"HashPipe", "tofino-eval", "hp_stages=6/assume/6"},
	{"HashPipe", "running-example", "hp_stages=0/memory/1"},
	{"HashPipe", "tofino-like", "hp_stages=6/assume/6"},
	{"HashPipe", "mt-test", "hp_stages=6/assume/6"},
	{"StandaloneCMS", "tofino-eval", "cms_rows=9/path/10"},
	{"StandaloneCMS", "running-example", "cms_rows=2/path/3"},
	{"StandaloneCMS", "tofino-like", "cms_rows=11/path/12"},
	{"StandaloneCMS", "mt-test", "cms_rows=7/path/8"},
	{"StandaloneBloom", "tofino-eval", "bf_rows=9/path/10"},
	{"StandaloneBloom", "running-example", "bf_rows=2/path/3"},
	{"StandaloneBloom", "tofino-like", "bf_rows=11/path/12"},
	{"StandaloneBloom", "mt-test", "bf_rows=7/path/8"},
	{"StandaloneKVS", "tofino-eval", "kv_parts=9/path/10"},
	{"StandaloneKVS", "running-example", "kv_parts=2/path/3"},
	{"StandaloneKVS", "tofino-like", "kv_parts=11/path/12"},
	{"StandaloneKVS", "mt-test", "kv_parts=7/path/8"},
	{"StandaloneHashTable", "tofino-eval", "ht_stages=9/path/10"},
	{"StandaloneHashTable", "running-example", "ht_stages=1/alu/2"},
	{"StandaloneHashTable", "tofino-like", "ht_stages=11/path/12"},
	{"StandaloneHashTable", "mt-test", "ht_stages=7/path/8"},
	{"StandaloneCountingTable", "tofino-eval", "ct_rows=9/path/10"},
	{"StandaloneCountingTable", "running-example", "ct_rows=2/path/3"},
	{"StandaloneCountingTable", "tofino-like", "ct_rows=11/path/12"},
	{"StandaloneCountingTable", "mt-test", "ct_rows=7/path/8"},
	{"StandaloneIDTable", "tofino-eval", ""},
	{"StandaloneIDTable", "running-example", ""},
	{"StandaloneIDTable", "tofino-like", ""},
	{"StandaloneIDTable", "mt-test", ""},
}

// TestGoldenBounds: every shipped program on every target gets the
// recorded bound, for the recorded reason, after the recorded number of
// graphs — and none of those graphs was answered by the path estimate.
func TestGoldenBounds(t *testing.T) {
	want := make(map[[2]string]string, len(goldenBounds))
	for _, row := range goldenBounds {
		want[[2]string{row[0], row[1]}] = row[2]
	}
	checked := 0
	for _, p := range shippedPrograms() {
		u := resolve(t, p[1])
		for _, tgt := range goldenTargets() {
			res, err := UpperBounds(u, &tgt)
			if err != nil {
				t.Fatalf("%s @ %s: %v", p[0], tgt.Name, err)
			}
			var got []string
			for _, sym := range res.Order {
				d := res.Details[sym]
				got = append(got, fmt.Sprintf("%s=%d/%s/%d", sym.Name, d.K, d.Why, d.Graphs))
				if d.K != res.LoopBound[sym] {
					t.Errorf("%s @ %s: %s: Detail.K = %d, LoopBound = %d", p[0], tgt.Name, sym.Name, d.K, res.LoopBound[sym])
				}
				if d.Estimated != 0 {
					t.Errorf("%s @ %s: %s: %d of %d graphs answered by the path estimate, want 0", p[0], tgt.Name, sym.Name, d.Estimated, d.Graphs)
				}
			}
			w, ok := want[[2]string{p[0], tgt.Name}]
			if !ok {
				t.Fatalf("%s @ %s: no golden row", p[0], tgt.Name)
			}
			if g := strings.Join(got, " "); g != w {
				t.Errorf("%s @ %s: bounds %q, golden %q", p[0], tgt.Name, g, w)
			}
			if res.PathEstimates() != 0 {
				t.Errorf("%s @ %s: PathEstimates = %d, want 0", p[0], tgt.Name, res.PathEstimates())
			}
			checked++
		}
	}
	if checked != len(goldenBounds) {
		t.Errorf("checked %d program/target pairs, golden table has %d", checked, len(goldenBounds))
	}
}

// TestResultStringDeterministic: the rendered bound list follows the
// program's loop order, not map iteration order.
func TestResultStringDeterministic(t *testing.T) {
	u := resolve(t, apps.SketchLearn().Source)
	tgt := pisa.EvalTarget(pisa.Mb)
	res, err := UpperBounds(u, &tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := "lv0_rows <= 2 (assume, 2 graphs)\n" +
		"lv1_rows <= 2 (assume, 2 graphs)\n" +
		"lv2_rows <= 2 (assume, 2 graphs)\n" +
		"lv3_rows <= 2 (assume, 2 graphs)\n"
	for i := 0; i < 20; i++ {
		if got := res.String(); got != want {
			t.Fatalf("rendering %d: String() =\n%swant\n%s", i, got, want)
		}
	}
}
