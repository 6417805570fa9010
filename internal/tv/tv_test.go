package tv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/codegen"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

var update = flag.Bool("update", false, "rewrite golden certificate files")

// compileFor runs the compile pipeline inline. The tests cannot use
// internal/core (it imports this package), so they drive the phases
// directly, with the same deterministic solver configuration the
// difftest harness uses.
func compileFor(t testing.TB, src string, target pisa.Target) (*lang.Unit, *ilpgen.Layout, *codegen.Concrete) {
	t.Helper()
	u, layout, prog, err := compile(src, target)
	if err != nil {
		t.Fatal(err)
	}
	return u, layout, prog
}

func compile(src string, target pisa.Target) (*lang.Unit, *ilpgen.Layout, *codegen.Concrete, error) {
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		return nil, nil, nil, err
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		return nil, nil, nil, err
	}
	ilpProg, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		return nil, nil, nil, err
	}
	layout, err := ilpProg.Solve(ilp.Options{Gap: 0.1})
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := codegen.Build(u, layout)
	if err != nil {
		return nil, nil, nil, err
	}
	return u, layout, prog, nil
}

func mustProve(t *testing.T, cert *Certificate) {
	t.Helper()
	if cert.Proved() {
		return
	}
	t.Errorf("verdict %s: %s", cert.Verdict, cert.Summary())
	for _, ob := range cert.Equivalence.Obligations {
		t.Errorf("  obligation %s: %s (%d paths)", ob.Kind, ob.Detail, ob.Paths)
	}
	for _, c := range cert.Audit.Checks {
		if !c.OK {
			t.Errorf("  audit %s: %s", c.Name, c.Detail)
		}
	}
}

// TestAppsCertifyProved is the headline acceptance check: all four
// benchmark applications must certify with a fully symbolic proof —
// zero residual obligations, zero concrete fallbacks.
func TestAppsCertifyProved(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			u, layout, prog := compileFor(t, app.Source, pisa.EvalTarget(pisa.Mb))
			cert := Validate(u, layout, prog, Options{Name: app.Name})
			mustProve(t, cert)
			if cert.Equivalence.Fallbacks != 0 {
				t.Errorf("%d fallbacks, want a fully symbolic proof", cert.Equivalence.Fallbacks)
			}
			if cert.Equivalence.Paths == 0 {
				t.Error("no paths enumerated")
			}
		})
	}
}

// bindingSource is the §4 count-min program with its take-min loop
// iterating loopVar under guard, after seed: programs that differ from
// a shipped one only by a loop variable's name or a constant instance
// expression, so both sides must read the resolver's instance binding.
func bindingSource(loopVar, guard, seed string) string {
	return strings.NewReplacer("$v", loopVar, "$g", guard, "$s", seed).Replace(`
symbolic int rows;
symbolic int cols;
const int K = 2;
header flow_t { bit<32> id; }
struct meta {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min;
}
register<bit<32>>[cols][rows] cms;
action incr()[int i] {
    meta.index[i] = hash(flow_t.id, i) % cols;
    cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
    meta.count[i] = cms[i][meta.index[i]];
}
action set_min()[int i] { meta.min = meta.count[i]; }
action pick() { meta.min = meta.count[K - 1]; }
control main {
    apply {
        for (i < rows) { incr()[i]; }
        $s
        for ($v < rows) {
            if ($g) { set_min()[$v]; }
        }
    }
}
assume rows >= 2;
optimize rows * cols;
`)
}

func TestLibraryModulesCertifyProved(t *testing.T) {
	for name, src := range map[string]string{
		"cms":   modules.StandaloneCMS(),
		"bloom": modules.StandaloneBloom(),
		"kvs":   modules.StandaloneKVS(),
		"ht":    modules.StandaloneHashTable(),
		// The guard reads meta.count[j], compares j, or a seed action
		// reads meta.count[K - 1]; the last row renames j to i.
		"binding guard field":    bindingSource("j", "meta.count[j] > meta.min", ""),
		"binding guard name":     bindingSource("j", "j > 0", ""),
		"binding const instance": bindingSource("i", "meta.count[i] > meta.min", "pick();"),
		"binding control":        bindingSource("i", "meta.count[i] > meta.min", ""),
	} {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb/4))
			cert := Validate(u, layout, prog, Options{Name: name})
			mustProve(t, cert)
		})
	}
}

// TestTableProgramProved exercises the table path of the schedule
// reconciliation: the match placement must line up with the table's
// apply entry, and the table-dispatched actions (absent from the apply
// block) must still execute at their placed slots on both sides.
func TestTableProgramProved(t *testing.T) {
	src := `
header ipv4 { bit<32> dst; }
struct meta { bit<9> port; }
action set_port() { meta.port = 1; }
action drop_pkt() { meta.port = 0; }
table fwd {
    key = { ipv4.dst; }
    actions = { set_port; drop_pkt; }
    size = 512;
}
control main { apply { fwd.apply(); } }
`
	u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb))
	cert := Validate(u, layout, prog, Options{Name: "fwd"})
	mustProve(t, cert)
}

// TestDivergentAbortPathsProved: a symbolic divisor forks an abort path
// (division by zero); both sides must abort identically on it and agree
// on the surviving path.
func TestDivergentAbortPathsProved(t *testing.T) {
	src := `
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> q; }
action div_it() { meta.q = pkt.a / pkt.b; }
control main { apply { div_it(); } }
`
	u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb))
	cert := Validate(u, layout, prog, Options{Name: "div"})
	mustProve(t, cert)
	if cert.Equivalence.Paths != 2 {
		t.Errorf("paths = %d, want 2 (divisor zero and nonzero)", cert.Equivalence.Paths)
	}
}

// TestComplementaryGuardsPruned: an if/else in the apply block
// linearizes to two steps guarded by c and !c. Once the path decides c,
// !c is decided too, so the proof enumerates two paths, not four of
// which two are infeasible.
func TestComplementaryGuardsPruned(t *testing.T) {
	src := `
header pkt { bit<32> a; }
struct meta { bit<32> r; }
action yes() { meta.r = 1; }
action no() { meta.r = 2; }
control main { apply { if (pkt.a == 1) { yes(); } else { no(); } } }
`
	u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb))
	cert := Validate(u, layout, prog, Options{Name: "ifelse"})
	mustProve(t, cert)
	if cert.Equivalence.Paths != 2 {
		t.Errorf("paths = %d, want 2 (a == 1 and a != 1)", cert.Equivalence.Paths)
	}
}

// TestNegativeConstantProved: a named constant below zero is printed in
// the text as its 64-bit pattern, which parses back as the same literal.
func TestNegativeConstantProved(t *testing.T) {
	src := `
const int NEG = 0 - 1;
header pkt { bit<32> a; }
struct meta { bit<32> r; }
action set() { meta.r = pkt.a + NEG; }
control main { apply { set(); } }
`
	u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb))
	mustProve(t, Validate(u, layout, prog, Options{Name: "neg"}))
}

func TestPathBudgetIsAnObligation(t *testing.T) {
	u, layout, prog := compileFor(t, modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb/4))
	cert := validate(u, layout, codegen.Render(prog), Options{Name: "cms"}, 1, 4)
	if cert.Proved() {
		t.Fatal("path budget 1 must not prove a branching program")
	}
	found := false
	for _, ob := range cert.Equivalence.Obligations {
		if ob.Kind == "path-budget" {
			found = true
		}
	}
	if !found {
		t.Errorf("no path-budget obligation: %+v", cert.Equivalence.Obligations)
	}
}

// TestCertificateDeterminism: validating one layout twice must produce
// byte-identical certificate JSON (the deterministic solver pins the
// layout; everything downstream must be order-stable).
func TestCertificateDeterminism(t *testing.T) {
	src := modules.StandaloneCMS()
	target := pisa.EvalTarget(pisa.Mb / 4)
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	ilpProg, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := ilpProg.Solve(ilp.Options{Gap: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Build(u, layout)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for rep := 0; rep < 2; rep++ {
		cert := Validate(u, layout, prog, Options{Name: "cms"})
		data, err := cert.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, data) {
			t.Fatalf("certificate not byte-stable:\n%s\nvs\n%s", prev, data)
		}
		prev = data
	}
}

// TestCertificateGolden pins the exact certificate bytes for a small
// deterministic compile. Regenerate with `go test ./internal/tv -run
// Golden -update` after an intentional schema or semantics change.
func TestCertificateGolden(t *testing.T) {
	u, layout, prog := compileFor(t, modules.StandaloneCMS(), pisa.RunningExampleTarget())
	cert := Validate(u, layout, prog, Options{Name: "cms"})
	data, err := cert.JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "cms_certificate.golden")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("certificate drifted from golden file:\n got:\n%s\nwant:\n%s", data, want)
	}
}

// TestAuditBudgetsReported: a proved certificate carries the re-derived
// per-stage budgets, each within its target limit.
func TestAuditBudgetsReported(t *testing.T) {
	u, layout, prog := compileFor(t, modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb/4))
	cert := Validate(u, layout, prog, Options{Name: "cms"})
	mustProve(t, cert)
	if len(cert.Audit.Budgets) == 0 {
		t.Fatal("no budgets in audit")
	}
	for _, b := range cert.Audit.Budgets {
		if b.Used > b.Limit {
			t.Errorf("budget %s stage %d: used %d > limit %d (audit should have failed)",
				b.Resource, b.Stage, b.Used, b.Limit)
		}
	}
}
