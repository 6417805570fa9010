package codegen

import (
	"fmt"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

const cmsSource = `
symbolic int rows;
symbolic int cols;
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
control main {
    apply {
        for (i < rows) { incr()[i]; }
        for (i < rows) {
            if (meta.count[i] < meta.min) { set_min()[i]; }
        }
    }
}
optimize rows * cols;
`

func compileCMS(t *testing.T, target pisa.Target) (*lang.Unit, *ilpgen.Layout, string) {
	t.Helper()
	return compile(t, cmsSource, target, ilp.Options{})
}

func compile(t *testing.T, src string, target pisa.Target, opts ilp.Options) (*lang.Unit, *ilpgen.Layout, string) {
	t.Helper()
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := p.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(u, layout)
	if err != nil {
		t.Fatal(err)
	}
	p4 := Render(c)
	return u, layout, p4
}

func TestGeneratedProgramStructure(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout, p4 := compileCMS(t, tgt)
	rows := layout.Symbolic("rows")
	cols := layout.Symbolic("cols")

	// Symbolic assignment header.
	if !strings.Contains(p4, fmt.Sprintf("rows=%d", rows)) || !strings.Contains(p4, fmt.Sprintf("cols=%d", cols)) {
		t.Errorf("missing symbolic assignment header:\n%s", firstLines(p4, 5))
	}
	// One register declaration per placed row with concrete size.
	for i := int64(0); i < rows; i++ {
		want := fmt.Sprintf("register<bit<32>>[%d] cms_%d;", cols, i)
		if !strings.Contains(p4, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Unrolled concrete actions with iteration-substituted bodies.
	for i := int64(0); i < rows; i++ {
		if !strings.Contains(p4, fmt.Sprintf("action incr_%d()", i)) {
			t.Errorf("missing action incr_%d", i)
		}
		if !strings.Contains(p4, fmt.Sprintf("meta.index_%d = ", i)) {
			t.Errorf("missing expanded elastic field meta.index_%d", i)
		}
	}
	// The modulus must be the concrete cols value, not the symbolic.
	if !strings.Contains(p4, fmt.Sprintf("%% %d;", cols)) {
		t.Errorf("symbolic cols not substituted in hash modulus")
	}
	// Elastic struct fields expanded.
	if !strings.Contains(p4, "bit<32> index_0;") {
		t.Error("struct fields not expanded per instance")
	}
	// Stage annotations present.
	if !strings.Contains(p4, "@stage(") {
		t.Error("missing @stage annotations")
	}
	// Guards preserved in the apply block.
	if !strings.Contains(p4, "if (") {
		t.Error("guard conditions missing from apply block")
	}
}

func TestGeneratedProgramDropsUnplacedIterations(t *testing.T) {
	// On the tiny target only one iteration fits; the generated P4
	// must not mention iteration 1.
	tgt := pisa.RunningExampleTarget()
	_, layout, p4 := compileCMS(t, tgt)
	if layout.Symbolic("rows") != 1 {
		t.Fatalf("rows = %d, want 1", layout.Symbolic("rows"))
	}
	if strings.Contains(p4, "incr_1") || strings.Contains(p4, "cms_1") {
		t.Errorf("unplaced iteration leaked into generated code:\n%s", p4)
	}
}

func TestApplyOrderFollowsStages(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, _, p4 := compileCMS(t, tgt)
	// In the apply block, incr_0 must appear before set_min_0.
	applyIdx := strings.Index(p4, "apply {")
	if applyIdx < 0 {
		t.Fatal("no apply block")
	}
	body := p4[applyIdx:]
	i0 := strings.Index(body, "incr_0()")
	m0 := strings.Index(body, "set_min_0()")
	if i0 < 0 || m0 < 0 || i0 > m0 {
		t.Errorf("apply order wrong: incr_0 at %d, set_min_0 at %d", i0, m0)
	}
}

// TestGeneratedCodeReproducible: for a fixed layout, code generation
// is deterministic, and the emitted program below its header comments
// is a fixed point of parse and lang.Print. Inputs are the CMS above
// and every shipped program, on the 1 Mb evaluation target.
func TestGeneratedCodeReproducible(t *testing.T) {
	progs := [][2]string{
		{"cms", cmsSource},
		{"StandaloneCMS", modules.StandaloneCMS()},
		{"StandaloneBloom", modules.StandaloneBloom()},
		{"StandaloneKVS", modules.StandaloneKVS()},
		{"StandaloneHashTable", modules.StandaloneHashTable()},
		{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		{"StandaloneIDTable", modules.StandaloneIDTable()},
	}
	for _, a := range apps.All() {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	for i, p := range progs {
		// The shipped programs solve to the compiler's default gap.
		opts := ilp.Options{Gap: 0.03, NodeLimit: 4000}
		if i == 0 {
			opts = ilp.Options{}
		}
		u, layout, p4a := compile(t, p[1], pisa.EvalTarget(pisa.Mb), opts)
		c, err := Build(u, layout)
		if err != nil {
			t.Fatal(err)
		}
		if p4a != Render(c) {
			t.Errorf("%s: code generation is not deterministic for a fixed layout", p[0])
		}
		_, body, ok := strings.Cut(p4a, "\n\n")
		if !ok || strings.HasPrefix(body, "//") {
			t.Fatalf("%s: no header comments to strip:\n%s", p[0], firstLines(p4a, 5))
		}
		prog, err := lang.Parse(body)
		if err != nil {
			t.Fatalf("%s: emitted program does not parse: %v", p[0], err)
		}
		if again := lang.Print(prog); again != body {
			t.Errorf("%s: parse and print is not a fixed point of the emitted program:\n--- emitted\n%s\n--- printed\n%s", p[0], body, again)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestTableEmission(t *testing.T) {
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
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.EvalTarget(pisa.Mb)
	bounds, err := unroll.UpperBounds(u, &tgt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ilpgen.Generate(u, &tgt, bounds)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := p.Solve(ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(u, layout)
	if err != nil {
		t.Fatal(err)
	}
	p4 := Render(c)
	for _, want := range []string{"table fwd {", "key = { ipv4.dst; }", "actions = { set_port; drop_pkt; }", "size = 512;", "fwd.apply();"} {
		if !strings.Contains(p4, want) {
			t.Errorf("generated P4 missing %q:\n%s", want, p4)
		}
	}
	// Table-dispatched actions must not be invoked directly.
	if strings.Contains(p4, "set_port();") || strings.Contains(p4, "drop_pkt();") {
		t.Errorf("table actions invoked directly in apply:\n%s", p4)
	}
}
