package sem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"p4all/internal/lang"
)

// shippedFootprints pins the footprint of every invocation of the
// shipped programs to the access lists the resolver kept before the
// footprint replaced them: program, invocation order, action, then the
// body's accesses (registers first, each instance once, written if any
// access writes it; then every field access in evaluation order) and
// the guard list's.
var shippedFootprints = []struct {
	prog                 string
	order                int
	action, body, guards string
}{
	{"NetCache", 0, "cms_seed_min", "cms_meta.min w", ""},
	{"NetCache", 1, "cms_incr", "cms_sketch[i] w, query.key r, cms_meta.index[i] w, cms_meta.index[i] r, cms_meta.index[i] r, cms_meta.index[i] r, cms_meta.count[i] w", ""},
	{"NetCache", 2, "cms_take_min", "cms_meta.count[i] r, cms_meta.min w", "cms_meta.count[i] r, cms_meta.min r"},
	{"NetCache", 3, "kv_lookup", "kv_store[i] r, query.key r, kv_meta.index[i] w, kv_meta.index[i] r, kv_meta.word[i] w", ""},
	{"NetCache", 4, "kv_fold", "kv_meta.value r, kv_meta.word[i] r, kv_meta.value w", ""},
	{"NetCache", 5, "mark_hit", "kv_meta.hit r, nc_meta.cache_hit w", ""},
	{"NetCache", 6, "fwd__match", "ipv4.dst r", ""},
	{"NetCache", 7, "set_port", "nc_meta.port w", ""},
	{"NetCache", 8, "drop_pkt", "nc_meta.port w", ""},
	{"SketchLearn", 0, "lv0_seed_min", "lv0_meta.min w", ""},
	{"SketchLearn", 1, "lv0_incr", "lv0_sketch[i] w, pkt.flow r, lv0_meta.index[i] w, lv0_meta.index[i] r, lv0_meta.index[i] r, lv0_meta.index[i] r, lv0_meta.count[i] w", ""},
	{"SketchLearn", 2, "lv0_take_min", "lv0_meta.count[i] r, lv0_meta.min w", "lv0_meta.count[i] r, lv0_meta.min r"},
	{"SketchLearn", 3, "lv1_seed_min", "lv1_meta.min w", ""},
	{"SketchLearn", 4, "lv1_incr", "lv1_sketch[i] w, pkt.flow r, lv1_meta.index[i] w, lv1_meta.index[i] r, lv1_meta.index[i] r, lv1_meta.index[i] r, lv1_meta.count[i] w", ""},
	{"SketchLearn", 5, "lv1_take_min", "lv1_meta.count[i] r, lv1_meta.min w", "lv1_meta.count[i] r, lv1_meta.min r"},
	{"SketchLearn", 6, "lv2_seed_min", "lv2_meta.min w", ""},
	{"SketchLearn", 7, "lv2_incr", "lv2_sketch[i] w, pkt.flow r, lv2_meta.index[i] w, lv2_meta.index[i] r, lv2_meta.index[i] r, lv2_meta.index[i] r, lv2_meta.count[i] w", ""},
	{"SketchLearn", 8, "lv2_take_min", "lv2_meta.count[i] r, lv2_meta.min w", "lv2_meta.count[i] r, lv2_meta.min r"},
	{"SketchLearn", 9, "lv3_seed_min", "lv3_meta.min w", ""},
	{"SketchLearn", 10, "lv3_incr", "lv3_sketch[i] w, pkt.flow r, lv3_meta.index[i] w, lv3_meta.index[i] r, lv3_meta.index[i] r, lv3_meta.index[i] r, lv3_meta.count[i] w", ""},
	{"SketchLearn", 11, "lv3_take_min", "lv3_meta.count[i] r, lv3_meta.min w", "lv3_meta.count[i] r, lv3_meta.min r"},
	{"Precision", 0, "hh_probe", "hh_keys[i] r, hh_vals[i] w, pkt.flow r, hh_meta.index[i] w, hh_meta.index[i] r, hh_meta.stored[i] w, hh_meta.index[i] r, hh_meta.index[i] r, hh_meta.index[i] r, hh_meta.count[i] w", ""},
	{"Precision", 1, "hh_note", "hh_meta.matched r, hh_meta.count[i] r, hh_meta.matched w", ""},
	{"Precision", 2, "decide_recirc", "pkt.flow r, pr_meta.sample w, pr_meta.recirculate w", "hh_meta.matched r"},
	{"ConQuest", 0, "snap0_seed_min", "snap0_meta.min w", ""},
	{"ConQuest", 1, "snap0_incr", "snap0_sketch[i] w, pkt.flow r, snap0_meta.index[i] w, snap0_meta.index[i] r, snap0_meta.index[i] r, snap0_meta.index[i] r, snap0_meta.count[i] w", ""},
	{"ConQuest", 2, "snap0_take_min", "snap0_meta.count[i] r, snap0_meta.min w", "snap0_meta.count[i] r, snap0_meta.min r"},
	{"ConQuest", 3, "snap1_seed_min", "snap1_meta.min w", ""},
	{"ConQuest", 4, "snap1_incr", "snap1_sketch[i] w, pkt.flow r, snap1_meta.index[i] w, snap1_meta.index[i] r, snap1_meta.index[i] r, snap1_meta.index[i] r, snap1_meta.count[i] w", ""},
	{"ConQuest", 5, "snap1_take_min", "snap1_meta.count[i] r, snap1_meta.min w", "snap1_meta.count[i] r, snap1_meta.min r"},
	{"ConQuest", 6, "snap2_seed_min", "snap2_meta.min w", ""},
	{"ConQuest", 7, "snap2_incr", "snap2_sketch[i] w, pkt.flow r, snap2_meta.index[i] w, snap2_meta.index[i] r, snap2_meta.index[i] r, snap2_meta.index[i] r, snap2_meta.count[i] w", ""},
	{"ConQuest", 8, "snap2_take_min", "snap2_meta.count[i] r, snap2_meta.min w", "snap2_meta.count[i] r, snap2_meta.min r"},
	{"ConQuest", 9, "combine", "snap0_meta.min r, snap1_meta.min r, snap2_meta.min r, cq_meta.estimate w", ""},
	{"HashPipe", 0, "hp_probe", "hp_keys[i] r, hp_vals[i] w, pkt.flow r, hp_meta.index[i] w, hp_meta.index[i] r, hp_meta.stored[i] w, hp_meta.index[i] r, hp_meta.index[i] r, hp_meta.index[i] r, hp_meta.count[i] w", ""},
	{"HashPipe", 1, "hp_note", "hp_meta.matched r, hp_meta.count[i] r, hp_meta.matched w", ""},
	{"HashPipe", 2, "pick_min", "hpc_meta.carried r, hp_meta.matched r, hpc_meta.carried w", ""},
	{"FlowRadar", 0, "fr_bf_probe", "fr_bf_filter[i] w, pkt.flow r, fr_bf_meta.index[i] w, fr_bf_meta.index[i] r, fr_bf_meta.seen[i] w, fr_bf_meta.index[i] r", ""},
	{"FlowRadar", 1, "fr_bf_tally", "fr_bf_meta.hits r, fr_bf_meta.seen[i] r, fr_bf_meta.hits w", ""},
	{"FlowRadar", 2, "note_new", "frd_meta.is_new w", "fr_bf_meta.hits r"},
	{"FlowRadar", 3, "fr_ct_encode", "fr_ct_flowsum[i] w, fr_ct_flowcnt[i] w, fr_ct_pktcnt[i] w, pkt.flow r, fr_ct_meta.index[i] w, fr_ct_meta.index[i] r, pkt.flow r, fr_ct_meta.index[i] r, fr_ct_meta.index[i] r, fr_ct_meta.index[i] r, fr_ct_meta.index[i] r, fr_ct_meta.index[i] r, fr_ct_meta.index[i] r, fr_ct_meta.pkts[i] w", ""},
	{"FlowRadar", 4, "fr_ct_tally", "fr_ct_meta.total r, fr_ct_meta.pkts[i] r, fr_ct_meta.total w", ""},
	{"StandaloneCMS", 0, "cms_seed_min", "cms_meta.min w", ""},
	{"StandaloneCMS", 1, "cms_incr", "cms_sketch[i] w, pkt.flow r, cms_meta.index[i] w, cms_meta.index[i] r, cms_meta.index[i] r, cms_meta.index[i] r, cms_meta.count[i] w", ""},
	{"StandaloneCMS", 2, "cms_take_min", "cms_meta.count[i] r, cms_meta.min w", "cms_meta.count[i] r, cms_meta.min r"},
	{"StandaloneBloom", 0, "bf_probe", "bf_filter[i] w, pkt.flow r, bf_meta.index[i] w, bf_meta.index[i] r, bf_meta.seen[i] w, bf_meta.index[i] r", ""},
	{"StandaloneBloom", 1, "bf_tally", "bf_meta.hits r, bf_meta.seen[i] r, bf_meta.hits w", ""},
	{"StandaloneKVS", 0, "kv_lookup", "kv_store[i] r, pkt.flow r, kv_meta.index[i] w, kv_meta.index[i] r, kv_meta.word[i] w", ""},
	{"StandaloneKVS", 1, "kv_fold", "kv_meta.value r, kv_meta.word[i] r, kv_meta.value w", ""},
	{"StandaloneHashTable", 0, "ht_probe", "ht_keys[i] r, ht_vals[i] w, pkt.flow r, ht_meta.index[i] w, ht_meta.index[i] r, ht_meta.stored[i] w, ht_meta.index[i] r, ht_meta.index[i] r, ht_meta.index[i] r, ht_meta.count[i] w", ""},
	{"StandaloneHashTable", 1, "ht_note", "ht_meta.matched r, ht_meta.count[i] r, ht_meta.matched w", ""},
	{"StandaloneCountingTable", 0, "ct_encode", "ct_flowsum[i] w, ct_flowcnt[i] w, ct_pktcnt[i] w, pkt.flow r, ct_meta.index[i] w, ct_meta.index[i] r, pkt.flow r, ct_meta.index[i] r, ct_meta.index[i] r, ct_meta.index[i] r, ct_meta.index[i] r, ct_meta.index[i] r, ct_meta.index[i] r, ct_meta.pkts[i] w", ""},
	{"StandaloneCountingTable", 1, "ct_tally", "ct_meta.total r, ct_meta.pkts[i] r, ct_meta.total w", ""},
	{"StandaloneIDTable", 0, "idt_load", "idt_table w, pkt.flow r, idt_meta.slot w, idt_meta.slot r, idt_meta.slot r, idt_meta.slot r, idt_meta.state w", ""},
}

// render lists a footprint as shippedFootprints does.
func render(fp []Access) (body, guards string) {
	inst := func(a Access) string {
		name := ""
		if a.Reg != nil {
			name = a.Reg.Name
		} else {
			name = a.Field.Qual()
		}
		switch a.Inst {
		case InstIter:
			return name + "[i]"
		case InstConst:
			return fmt.Sprintf("%s[%d]", name, a.Const)
		}
		return name
	}
	rw := map[bool]string{false: " r", true: " w"}
	var regs, fields, guard []string
	for _, a := range fp {
		switch {
		case a.Guard:
			guard = append(guard, inst(a)+rw[a.Write])
		case a.Field != nil:
			fields = append(fields, inst(a)+rw[a.Write])
		default:
			i := slices.IndexFunc(regs, func(r string) bool { return strings.HasPrefix(r, inst(a)+" ") })
			switch {
			case i < 0:
				regs = append(regs, inst(a)+rw[a.Write])
			case a.Write:
				regs[i] = inst(a) + " w"
			}
		}
	}
	return strings.Join(append(regs, fields...), ", "), strings.Join(guard, ", ")
}

// TestActionFootprint holds every shipped invocation's footprint to the
// pinned lists, and no shipped guard reads a register.
func TestActionFootprint(t *testing.T) {
	units := make(map[string]*lang.Unit)
	seen := 0
	for name, src := range shippedPrograms() {
		u, err := lang.ParseAndResolve(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units[name] = u
		seen += len(u.Invocations)
	}
	if seen != len(shippedFootprints) {
		t.Fatalf("%d invocations in the shipped programs, %d pinned", seen, len(shippedFootprints))
	}
	for _, c := range shippedFootprints {
		u := units[c.prog]
		if u == nil || c.order >= len(u.Invocations) || u.Invocations[c.order].Action.Name != c.action {
			t.Fatalf("%s: no invocation %d of %s", c.prog, c.order, c.action)
		}
		inv := u.Invocations[c.order]
		if body, guards := render(Footprint(u, inv)); body != c.body || guards != c.guards {
			t.Errorf("%s %s:\n body   %s\n guards %s\nwant\n body   %s\n guards %s", c.prog, c.action, body, guards, c.body, c.guards)
		}
	}
}

// TestFootprintIndexForms classifies each instance-index form the
// resolver accepts as the resolver did: the action's index parameter in
// its body and the innermost loop variable in a guard are the
// iteration; constant names, literals, + - * / % and negation over them
// are the constant they evaluate to.
func TestFootprintIndexForms(t *testing.T) {
	const host = `
const int K = 3;
symbolic int n;
struct meta { bit<32>[n] x; bit<32> y; }
register<bit<32>>[64][n] r;
action a()[int i] { meta.y = meta.x[%[1]s] + r[%[1]s][0]; }
control main { apply { for (j < n) { if (meta.x[%[2]s] == 1) { a()[j]; } } } }
optimize n;
`
	cases := []struct {
		body, guard string
		inst        Inst
		val         uint64
	}{
		{"i", "j", InstIter, 0},
		{"K", "K", InstConst, 3},
		{"2", "2", InstConst, 2},
		{"K + 1", "1 + K", InstConst, 4},
		{"K - 1", "5 - K", InstConst, 2},
		{"K * 2", "2 * K", InstConst, 6},
		{"7 / K", "(K + 3) / 3", InstConst, 2},
		{"7 % K", "K % 2", InstConst, 1},
		{"-(-K)", "-(0 - K)", InstConst, 3},
		{"K + -1", "-1 + K", InstConst, 2},
		{"(K - 1) * (5 % 3) / 2 + -(-1)", "K", InstConst, 3},
	}
	for _, c := range cases {
		u, err := lang.ParseAndResolve(fmt.Sprintf(host, c.body, c.guard))
		if err != nil {
			t.Fatalf("%s / %s: %v", c.body, c.guard, err)
		}
		var got []string
		for _, a := range Footprint(u, u.Invocations[0]) {
			if a.Reg == nil && !a.Field.Elastic() {
				if a.Inst != InstScalar {
					t.Errorf("%s: scalar %s classified %d", c.body, a.Field.Qual(), a.Inst)
				}
				continue
			}
			if a.Inst != c.inst || a.Const != c.val {
				t.Errorf("%s / %s: %s classified %d, %d; want %d, %d", c.body, c.guard, lang.PrintExpr(a.Ref), a.Inst, a.Const, c.inst, c.val)
			}
			got = append(got, lang.PrintExpr(a.Ref))
		}
		if len(got) != 3 {
			t.Errorf("%s / %s: elastic accesses %v, want the guard's, the body's field and r", c.body, c.guard, got)
		}
	}
}
