package dep

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/lang"
	"p4all/internal/modules"
)

// commutingWrites lists the writes of inv that commute with like
// writes, as "field[i]" or "field[k]".
func commutingWrites(u *lang.Unit, inv *lang.Invocation) []string {
	var out []string
	for _, ac := range accessesOf(u, inv) {
		switch {
		case !ac.commutative:
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
