package dep

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// commutingWrites lists the writes of inv that commute with like
// writes, as "field[i]" or "field[k]".
func commutingWrites(u *lang.Unit, inv *lang.Invocation) []string {
	var out []string
	for _, ac := range accessesOf(u, inv) {
		switch {
		case ac.red == "":
		case ac.iter:
			out = append(out, ac.atom.name+"[i]")
		case ac.atom.index >= 0:
			out = append(out, fmt.Sprintf("%s[%d]", ac.atom.name, ac.atom.index))
		default:
			out = append(out, ac.atom.name)
		}
	}
	slices.Sort(out)
	return out
}

// shippedCommuting pins, for every invocation of the shipped programs
// with a commuting write, the writes the resolver marked commutative
// before dep took commutativity over; every other invocation has none.
var shippedCommuting = []struct {
	prog   string
	order  int
	action string
	writes string
}{
	{"NetCache", 2, "cms_take_min", "cms_meta.min"},
	{"NetCache", 4, "kv_fold", "kv_meta.value"},
	{"SketchLearn", 2, "lv0_take_min", "lv0_meta.min"},
	{"SketchLearn", 5, "lv1_take_min", "lv1_meta.min"},
	{"SketchLearn", 8, "lv2_take_min", "lv2_meta.min"},
	{"SketchLearn", 11, "lv3_take_min", "lv3_meta.min"},
	{"Precision", 1, "hh_note", "hh_meta.matched"},
	{"ConQuest", 2, "snap0_take_min", "snap0_meta.min"},
	{"ConQuest", 5, "snap1_take_min", "snap1_meta.min"},
	{"ConQuest", 8, "snap2_take_min", "snap2_meta.min"},
	{"HashPipe", 1, "hp_note", "hp_meta.matched"},
	{"HashPipe", 2, "pick_min", "hpc_meta.carried"},
	{"FlowRadar", 1, "fr_bf_tally", "fr_bf_meta.hits"},
	{"FlowRadar", 4, "fr_ct_tally", "fr_ct_meta.total"},
	{"StandaloneCMS", 2, "cms_take_min", "cms_meta.min"},
	{"StandaloneBloom", 1, "bf_tally", "bf_meta.hits"},
	{"StandaloneKVS", 1, "kv_fold", "kv_meta.value"},
	{"StandaloneHashTable", 1, "ht_note", "ht_meta.matched"},
	{"StandaloneCountingTable", 1, "ct_tally", "ct_meta.total"},
}

// TestShippedCommutativity holds the shipped programs' commuting writes
// to the pinned ones: self-reductions and the guarded minimum across
// the call boundary.
func TestShippedCommutativity(t *testing.T) {
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
	want := make(map[string]string)
	for _, c := range shippedCommuting {
		want[fmt.Sprintf("%s %d %s", c.prog, c.order, c.action)] = c.writes
	}
	seen := 0
	for name, src := range progs {
		u, err := lang.ParseAndResolve(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, inv := range u.Invocations {
			key := fmt.Sprintf("%s %d %s", name, inv.Order, inv.Action.Name)
			if got := strings.Join(commutingWrites(u, inv), ", "); got != want[key] {
				t.Errorf("%s: commuting writes %q, want %q", key, got, want[key])
			}
			if want[key] != "" {
				seen++
			}
		}
	}
	if seen != len(shippedCommuting) {
		t.Errorf("%d pinned invocations found, want %d", seen, len(shippedCommuting))
	}
}

func TestGuardedReductionDetection(t *testing.T) {
	u := cmsUnit(t)
	if got := commutingWrites(u, u.Invocations[1]); !slices.Equal(got, []string{"meta.min"}) {
		t.Errorf("set_min (guarded min across the call) commuting writes %v, want meta.min", got)
	}
	if u.ActionByName("set_min").Commutative {
		t.Error("detection wrote to the shared action")
	}
	// The same update guarded inside the body.
	src := `
symbolic int n;
struct meta { bit<32> lo; bit<32> hi; bit<32>[n] v; }
action fold()[int i] {
    if (meta.v[i] < meta.lo) { meta.lo = meta.v[i]; }
    if (meta.hi <= meta.v[i]) { meta.hi = meta.v[i]; } else { meta.hi = 0; }
}
control main { apply { for (i < n) { fold()[i]; } } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := commutingWrites(u, u.Invocations[0]); !slices.Equal(got, []string{"meta.lo"}) {
		t.Errorf("fold commuting writes %v, want meta.lo (meta.hi's update has an else)", got)
	}
}

// TestCallBoundaryReductionIsPerInvocation: the guarded minimum across
// the call boundary makes that invocation's write commute, not every
// invocation of its action.
func TestCallBoundaryReductionIsPerInvocation(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32> min; bit<32>[n] count; }
action take()[int i] { meta.min = meta.count[i]; }
control main { apply {
    for (i < n) { take()[i]; }
    for (i < n) { if (meta.count[i] < meta.min) { take()[i]; } }
} }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := commutingWrites(u, u.Invocations[0]); len(got) != 0 {
		t.Errorf("unguarded take commuting writes %v, want none", got)
	}
	if got := commutingWrites(u, u.Invocations[1]); !slices.Equal(got, []string{"meta.min"}) {
		t.Errorf("guarded take commuting writes %v, want meta.min", got)
	}
}

func TestSelfReductionDetection(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32> total; bit<32>[n] v; }
action add()[int i] { meta.total = meta.total + meta.v[i]; }
action keepmax()[int i] { meta.total = max(meta.total, meta.v[i]); }
action plain()[int i] { meta.total = meta.v[i]; }
@commutative
action mix()[int i] { meta.total = meta.v[i]; }
control main { apply { for (i < n) { add()[i]; } for (i < n) { keepmax()[i]; } for (i < n) { plain()[i]; } for (i < n) { mix()[i]; } } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false, true} {
		inv := u.Invocations[i]
		if got := len(commutingWrites(u, inv)) == 1; got != want {
			t.Errorf("%s: commutes %v, want %v", inv.Action.Name, got, want)
		}
	}
}

// mixedReductionSource adds to meta.x and then takes its minimum with
// pkt.b. A sum and a minimum of one field do not commute: in program
// order pkt.a = 50 and pkt.b = 120 leave meta.x = min(100 + 50, 120) =
// 120, and the other order min(100, 120) + 50 = 150.
const mixedReductionSource = `
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> x; }
action seed() { meta.x = 100; }
action addx() { meta.x = meta.x + pkt.a; }
action minx() { meta.x = pkt.b; }
control main { apply { seed(); addx(); if (pkt.b < meta.x) { minx(); } } }
`

// TestReductionKindsDoNotCommute: addx's sum and minx's guarded minimum
// get a precedence edge in program order, where two reductions of one
// kind get an exclusion.
func TestReductionKindsDoNotCommute(t *testing.T) {
	u, err := lang.ParseAndResolve(mixedReductionSource)
	if err != nil {
		t.Fatal(err)
	}
	if got := commutingWrites(u, u.Invocations[1]); !slices.Equal(got, []string{"meta.x"}) {
		t.Errorf("addx commuting writes %v, want meta.x", got)
	}
	if got := commutingWrites(u, u.Invocations[2]); !slices.Equal(got, []string{"meta.x"}) {
		t.Errorf("minx commuting writes %v, want meta.x", got)
	}
	tgt := pisa.RunningExampleTarget()
	g := Build(u, Counts{}, &tgt)
	node := map[string]int{}
	for _, nd := range g.Nodes {
		for _, in := range nd.Instances {
			node[in.Inv.Action.Name] = nd.ID
		}
	}
	addNode, minNode := node["addx"], node["minx"]
	if !slices.Contains(g.Prec[addNode], minNode) {
		t.Errorf("no precedence edge addx -> minx\n%s", g)
	}
	if slices.Contains(g.Excl[addNode], minNode) {
		t.Errorf("addx and minx are an exclusion, as if a sum and a minimum commuted\n%s", g)
	}

	// Two sums of one field still commute.
	u, err = lang.ParseAndResolve(`
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> x; }
action adda() { meta.x = meta.x + pkt.a; }
action addb() { meta.x = pkt.b + meta.x; }
control main { apply { adda(); addb(); } }
`)
	if err != nil {
		t.Fatal(err)
	}
	g = Build(u, Counts{}, &tgt)
	if len(g.Nodes) != 2 || len(g.Prec[0]) != 0 || !slices.Equal(g.Excl[0], []int{1}) {
		t.Errorf("two sums of meta.x: want an exclusion and no precedence\n%s", g)
	}
}
