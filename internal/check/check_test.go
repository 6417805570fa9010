package check

import (
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/lang"
	"p4all/internal/modules"
)

func resolve(t *testing.T, src string) *lang.Unit {
	t.Helper()
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCleanProgramHasNoWarnings(t *testing.T) {
	u := resolve(t, modules.StandaloneCMS())
	if ws := Bounds(u); len(ws) != 0 {
		t.Errorf("library CMS flagged: %v", ws)
	}
}

func TestAllLibraryModulesClean(t *testing.T) {
	for name, src := range map[string]string{
		"cms":   modules.StandaloneCMS(),
		"bloom": modules.StandaloneBloom(),
		"kvs":   modules.StandaloneKVS(),
		"ht":    modules.StandaloneHashTable(),
		"idt":   modules.StandaloneIDTable(),
	} {
		u := resolve(t, src)
		if ws := Bounds(u); len(ws) != 0 {
			t.Errorf("%s flagged: %v", name, ws)
		}
	}
}

func TestAllAppsClean(t *testing.T) {
	for _, app := range apps.All() {
		u := resolve(t, app.Source)
		if ws := Bounds(u); len(ws) != 0 {
			t.Errorf("%s flagged: %v", app.Name, ws)
		}
	}
}

func TestCrossSymbolicIndexFlagged(t *testing.T) {
	// meta.v is sized by m but indexed by a loop over n: unsafe unless
	// the assumes prove m >= n.
	src := `
symbolic int n;
symbolic int m;
struct meta { bit<32>[m] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main { apply { for (i < n) { a()[i]; } } }
`
	u := resolve(t, src)
	ws := Bounds(u)
	if len(ws) == 0 {
		t.Fatal("cross-symbolic index not flagged")
	}
	if !strings.Contains(ws[0].Reason, "prove m >= n") {
		t.Errorf("warning lacks guidance: %v", ws[0])
	}
}

func TestCrossSymbolicIndexProvenByAssumes(t *testing.T) {
	src := `
symbolic int n;
symbolic int m;
assume n <= 4;
assume m >= 4;
struct meta { bit<32>[m] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main { apply { for (i < n) { a()[i]; } } }
`
	u := resolve(t, src)
	if ws := Bounds(u); len(ws) != 0 {
		t.Errorf("proven-safe access flagged: %v", ws)
	}
}

func TestConstExtentVsUnboundedLoopFlagged(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32>[8] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main { apply { for (i < n) { a()[i]; } } }
`
	u := resolve(t, src)
	ws := Bounds(u)
	if len(ws) == 0 {
		t.Fatal("constant extent under unbounded loop not flagged")
	}
}

func TestConstExtentProvenByAssume(t *testing.T) {
	src := `
symbolic int n;
assume n <= 8;
struct meta { bit<32>[8] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main { apply { for (i < n) { a()[i]; } } }
`
	u := resolve(t, src)
	if ws := Bounds(u); len(ws) != 0 {
		t.Errorf("assume-bounded loop flagged: %v", ws)
	}
}

func TestConstIndexBeyondExtentFlagged(t *testing.T) {
	src := `
struct meta { bit<32>[4] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.v[i]; }
control main { apply { a()[7]; } }
`
	u := resolve(t, src)
	ws := Bounds(u)
	if len(ws) == 0 {
		t.Fatal("constant index 7 into extent 4 not flagged")
	}
}

func TestConstIndexOutsideLoopFallsBackToConstCheck(t *testing.T) {
	// Regression: a()[k] outside any elastic loop reaches the iteration
	// case with no loop symbolic. The checker must fall back to the
	// invocation's constant index — proving the in-bounds call safe
	// instead of warning "indexed call outside any elastic loop".
	safe := `
struct meta { bit<32>[4] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.v[i]; }
control main { apply { a()[3]; } }
`
	if ws := Bounds(resolve(t, safe)); len(ws) != 0 {
		t.Errorf("in-bounds const-index call outside a loop flagged: %v", ws)
	}

	// And the out-of-bounds call must get the precise constant-index
	// diagnosis, not the generic outside-a-loop one.
	unsafe := `
struct meta { bit<32>[4] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.v[i]; }
control main { apply { a()[4]; } }
`
	ws := Bounds(resolve(t, unsafe))
	if len(ws) == 0 {
		t.Fatal("constant index 4 into extent 4 not flagged")
	}
	if ws[0].Index != "4" || !strings.Contains(ws[0].Reason, "extent is 4") {
		t.Errorf("fallback lost the constant-index diagnosis: %v", ws[0])
	}
	for _, w := range ws {
		if strings.Contains(w.Reason, "outside any elastic loop") {
			t.Errorf("const-index call misdiagnosed as loopless: %v", w)
		}
	}
}

func TestConstIndexIntoSymbolicExtent(t *testing.T) {
	// idx 2 into an array sized s: safe only with assume s >= 3.
	unsafe := `
symbolic int s;
symbolic int n;
struct meta { bit<32>[s] v; bit<32> acc; }
action a()[int i] { meta.acc = meta.v[i]; }
control main { apply { for (i < n) { a()[i]; } a()[2]; } }
`
	u := resolve(t, unsafe)
	found := false
	for _, w := range Bounds(u) {
		if strings.Contains(w.Reason, "assume s >= 3") {
			found = true
		}
	}
	if !found {
		t.Errorf("constant index into symbolic extent not flagged with guidance: %v", Bounds(u))
	}
	safe := "symbolic int s;\nassume s >= 3;\n" + strings.SplitN(unsafe, "\n", 3)[2]
	_ = safe
}

// TestGuardIndexesChecked: a guard's constant instance index is checked
// like a body's, a register's as a field's.
func TestGuardIndexesChecked(t *testing.T) {
	for _, guard := range []string{"meta.x[7] == 1", "r[7][0] == 1"} {
		src := `
symbolic int n;
assume n >= 1;
struct meta { bit<32>[n] x; bit<32> y; }
register<bit<32>>[64][n] r;
action a() { meta.y = 1; }
control main { apply { if (` + guard + `) { a(); } } }
`
		ws := Bounds(resolve(t, src))
		if len(ws) != 1 || ws[0].Action != "a (guard)" || ws[0].Index != "7" || !strings.Contains(ws[0].Reason, "assume n >= 8") {
			t.Errorf("guard %s: warnings %v, want one on instance 7", guard, ws)
		}
	}
}
