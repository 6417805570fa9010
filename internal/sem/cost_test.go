package sem

import (
	"testing"

	"p4all/internal/apps"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// shippedProfiles pins the profile of every invocation of the shipped
// programs: program, invocation order, action, then the body's and the
// guard list's register accesses, stateless ops and hashes. The counts
// are those the resolver counted by hand before the cost table
// replaced it, so every ILP coefficient the compiler derives from them
// is unchanged.
var shippedProfiles = []struct {
	prog   string
	order  int
	action string
	p      [6]int
}{
	{"NetCache", 0, "cms_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 1, "cms_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"NetCache", 2, "cms_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 3, "kv_lookup", [6]int{1, 2, 1, 0, 0, 0}},
	{"NetCache", 4, "kv_fold", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 5, "mark_hit", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 6, "fwd__match", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 7, "set_port", [6]int{0, 1, 0, 0, 0, 0}},
	{"NetCache", 8, "drop_pkt", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 0, "lv0_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 1, "lv0_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"SketchLearn", 2, "lv0_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 3, "lv1_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 4, "lv1_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"SketchLearn", 5, "lv1_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 6, "lv2_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 7, "lv2_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"SketchLearn", 8, "lv2_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 9, "lv3_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"SketchLearn", 10, "lv3_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"SketchLearn", 11, "lv3_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"Precision", 0, "hh_probe", [6]int{2, 3, 1, 0, 0, 0}},
	{"Precision", 1, "hh_note", [6]int{0, 1, 0, 0, 0, 0}},
	{"Precision", 2, "decide_recirc", [6]int{0, 2, 1, 0, 0, 0}},
	{"ConQuest", 0, "snap0_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 1, "snap0_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"ConQuest", 2, "snap0_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 3, "snap1_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 4, "snap1_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"ConQuest", 5, "snap1_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 6, "snap2_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 7, "snap2_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"ConQuest", 8, "snap2_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"ConQuest", 9, "combine", [6]int{0, 1, 0, 0, 0, 0}},
	{"HashPipe", 0, "hp_probe", [6]int{2, 3, 1, 0, 0, 0}},
	{"HashPipe", 1, "hp_note", [6]int{0, 1, 0, 0, 0, 0}},
	{"HashPipe", 2, "pick_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"FlowRadar", 0, "fr_bf_probe", [6]int{1, 2, 1, 0, 0, 0}},
	{"FlowRadar", 1, "fr_bf_tally", [6]int{0, 1, 0, 0, 0, 0}},
	{"FlowRadar", 2, "note_new", [6]int{0, 1, 0, 0, 0, 0}},
	{"FlowRadar", 3, "fr_ct_encode", [6]int{3, 2, 1, 0, 0, 0}},
	{"FlowRadar", 4, "fr_ct_tally", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneCMS", 0, "cms_seed_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneCMS", 1, "cms_incr", [6]int{1, 2, 1, 0, 0, 0}},
	{"StandaloneCMS", 2, "cms_take_min", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneBloom", 0, "bf_probe", [6]int{1, 2, 1, 0, 0, 0}},
	{"StandaloneBloom", 1, "bf_tally", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneKVS", 0, "kv_lookup", [6]int{1, 2, 1, 0, 0, 0}},
	{"StandaloneKVS", 1, "kv_fold", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneHashTable", 0, "ht_probe", [6]int{2, 3, 1, 0, 0, 0}},
	{"StandaloneHashTable", 1, "ht_note", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneCountingTable", 0, "ct_encode", [6]int{3, 2, 1, 0, 0, 0}},
	{"StandaloneCountingTable", 1, "ct_tally", [6]int{0, 1, 0, 0, 0, 0}},
	{"StandaloneIDTable", 0, "idt_load", [6]int{1, 2, 0, 0, 0, 0}},
}

func shippedPrograms() map[string]string {
	progs := map[string]string{
		"StandaloneCMS":           modules.StandaloneCMS(),
		"StandaloneBloom":         modules.StandaloneBloom(),
		"StandaloneKVS":           modules.StandaloneKVS(),
		"StandaloneHashTable":     modules.StandaloneHashTable(),
		"StandaloneCountingTable": modules.StandaloneCountingTable(),
		"StandaloneIDTable":       modules.StandaloneIDTable(),
	}
	for _, a := range append(apps.All(), apps.HashPipe(), apps.FlowRadar()) {
		progs[a.Name] = a.Source
	}
	return progs
}

func triple(p pisa.ActionProfile) [3]int {
	return [3]int{p.RegisterAccesses, p.StatelessOps, p.Hashes}
}

// TestActionProfiles derives every action's and every guard list's
// profile of the twelve shipped programs from the cost table and holds
// them to the pinned counts.
func TestActionProfiles(t *testing.T) {
	progs := shippedPrograms()
	units := make(map[string]*lang.Unit, len(progs))
	seen := 0
	for name, src := range progs {
		u, err := lang.ParseAndResolve(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units[name] = u
		seen += len(u.Invocations)
	}
	if seen != len(shippedProfiles) {
		t.Fatalf("%d invocations in the shipped programs, %d pinned", seen, len(shippedProfiles))
	}
	for _, c := range shippedProfiles {
		u := units[c.prog]
		if u == nil || c.order >= len(u.Invocations) || u.Invocations[c.order].Action.Name != c.action {
			t.Fatalf("%s: no invocation %d of %s", c.prog, c.order, c.action)
		}
		inv := u.Invocations[c.order]
		body, guards := triple(bodyProfile(u, inv)), triple(guardProfile(u, inv))
		if body != [3]int(c.p[:3]) || guards != [3]int(c.p[3:]) {
			t.Errorf("%s %s: body %v guards %v, want %v %v", c.prog, c.action, body, guards, c.p[:3], c.p[3:])
		}
		if got, want := Profile(u, inv), bodyProfile(u, inv).Add(guardProfile(u, inv)); got != want {
			t.Errorf("%s %s: Profile %+v, want body + guards %+v", c.prog, c.action, got, want)
		}
	}
}

const costSource = `
symbolic int n;
const int K = 1;
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32>[n] x; bit<32> y; bit<32> z; }
register<bit<32>>[64][n] r;
register<bit<32>>[64] s;
action both()[int i] {
    if (pkt.a == 1) { meta.y = r[i][0]; } else { r[i][0] = pkt.b; }
}
action cell()[int i] {
    r[i][hash(pkt.a, 1) % 64] = r[i][hash(pkt.a, 1) % 64] + 1;
}
action elsewrite()[int i] {
    if (pkt.a < pkt.b) { } else { meta.x[i] = pkt.a + pkt.b * 2; }
}
action consts()[int i] {
    meta.y = r[i][0] + r[K][1] + r[1][2] + r[0 + 1][3];
    s[0] = min(meta.y, max(pkt.a, 3));
}
action plain() { meta.z = 1; }
table t { key = { hash(pkt.a, 2); } actions = { plain; } size = 4; }
control main { apply {
    for (i < n) {
        if (r[i][hash(pkt.b, 3) % 64] == 0 && meta.x[i] > 1) { both()[i]; }
        cell()[i];
        elsewrite()[i];
        consts()[i];
    }
    if (pkt.a == 2) { t.apply(); }
} }
optimize n;
`

// TestCostTable applies each row of the cost table on one program, both
// statically (Profile's halves, both if arms summed) and per block at
// run time (Plan, for two iterations). The static counts equal those
// the resolver counted by hand.
func TestCostTable(t *testing.T) {
	u, err := lang.ParseAndResolve(costSource)
	if err != nil {
		t.Fatal(err)
	}
	static := map[string][2][3]int{
		// r read in one arm, written in the other: one RMW; the
		// guard's register read and hash charge apart from the body.
		"both": {{1, 1, 0}, {1, 0, 1}},
		// Two hashes in register cell indexes, one register instance.
		"cell": {{1, 0, 2}, {}},
		// A PHV write in an else arm; operators are free.
		"elsewrite": {{0, 1, 0}, {}},
		// r[i], then r[K] = r[1] = r[0+1]; s; min and max are free.
		"consts": {{3, 1, 0}, {}},
		// The match and its hashed key.
		"t__match": {{0, 1, 1}, {}},
		"plain":    {{0, 1, 0}, {}},
	}
	for _, inv := range u.Invocations {
		want, ok := static[inv.Action.Name]
		if !ok {
			t.Fatalf("unexpected invocation %s", inv.Action.Name)
		}
		if got := [2][3]int{triple(bodyProfile(u, inv)), triple(guardProfile(u, inv))}; got != want {
			t.Errorf("%s: body, guards %v, want %v", inv.Action.Name, got, want)
		}
	}

	step := func(action string, iter int) *Step {
		for _, inv := range u.Invocations {
			if inv.Action.Name == action {
				return &Step{Inv: inv, Iter: iter}
			}
		}
		t.Fatalf("no invocation of %s", action)
		return nil
	}
	syms := map[string]int64{"n": 2}
	both := step("both", 0).Plan(u, syms)
	body := u.ActionByName("both").Decl.Body
	arms := body.Stmts[0].(*lang.IfStmt)
	if triple(both.Guards) != [3]int{1, 0, 1} || both.Body != (pisa.ActionProfile{}) || len(both.Arms) != 2 ||
		triple(both.Arms[arms.Then]) != [3]int{1, 1, 0} || triple(both.Arms[arms.Else]) != [3]int{1, 0, 0} {
		t.Errorf("both: guards %+v, body %+v, arms %v", both.Guards, both.Body, both.Arms)
	}
	ew := step("elsewrite", 1).Plan(u, syms)
	ewIf := u.ActionByName("elsewrite").Decl.Body.Stmts[0].(*lang.IfStmt)
	if ew.Body != (pisa.ActionProfile{}) || len(ew.Arms) != 1 || triple(ew.Arms[ewIf.Else]) != [3]int{0, 1, 0} {
		t.Errorf("elsewrite: body %+v, arms %v, want only the else arm's write", ew.Body, ew.Arms)
	}
	// Iteration 1 reads the instance r[K] names: two instances, not three.
	for iter, want := range [][3]int{{3, 1, 0}, {2, 1, 0}} {
		if got := triple(step("consts", iter).Plan(u, syms).Body); got != want {
			t.Errorf("consts at iteration %d charges %v, want %v", iter, got, want)
		}
	}
}
