package lang

import (
	"slices"
	"strings"
	"testing"
)

// cmsSource is the paper's running example (Figure 6): an elastic
// count-min sketch with a hash/increment pass and a fold to the global
// minimum.
const cmsSource = `
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 8;
assume cols >= 64;

header flow_t {
    bit<32> id;
}

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

action set_min()[int i] {
    meta.min = meta.count[i];
}

control hash_inc {
    apply {
        for (i < rows) {
            incr()[i];
        }
    }
}

control find_min {
    apply {
        for (i < rows) {
            if (meta.count[i] < meta.min) {
                set_min()[i];
            }
        }
    }
}

control main {
    apply {
        hash_inc.apply();
        find_min.apply();
    }
}

optimize rows * cols;
`

func mustResolve(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := ParseAndResolve(src)
	if err != nil {
		t.Fatalf("ParseAndResolve: %v", err)
	}
	return u
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("symbolic int rows; // comment\nassume rows <= 4;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []Kind{KwSymbolic, KwInt, IDENT, SEMI, KwAssume, IDENT, LE, INT, SEMI, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPositionsAndLiterals(t *testing.T) {
	toks, err := Lex("x\n  0x1F 42")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("x at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("0x1F at %v, want 2:3", toks[1].Pos)
	}
	if v, ok := parseIntLit(toks[1].Text); !ok || v != 31 {
		t.Errorf("0x1F parsed as %d (%v)", v, ok)
	}
	if v, ok := parseIntLit(toks[2].Text); !ok || v != 42 {
		t.Errorf("42 parsed as %d (%v)", v, ok)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"a & b", "a | b", "/* unterminated", "$"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexBlockComment(t *testing.T) {
	toks, err := Lex("/* a\nmultiline */ x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != IDENT || toks[0].Text != "x" {
		t.Errorf("got %v, want ident x", toks[0])
	}
}

func TestParseRoundTrip(t *testing.T) {
	prog, err := Parse(cmsSource)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(prog)
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed source failed: %v\n%s", err, printed)
	}
	printed2 := Print(prog2)
	if printed != printed2 {
		t.Errorf("print/parse/print not a fixed point:\n--- first\n%s\n--- second\n%s", printed, printed2)
	}
}

// compiledSource is in the compiled dialect: @stage annotations, and
// P4_16's register<bit<W>>(N), which the parser takes beside the
// register<bit<W>>[N] the compiler prints.
const compiledSource = `
header pkt { bit<32> flow; }
struct meta { bit<32> index_0; }
@stage(0,3) register<bit<16>>(1024) cms_0;
@stage(1)
@commutative
action incr_0() {
    meta.index_0 = hash(pkt.flow, 0) % 1024;
    cms_0[meta.index_0] = cms_0[meta.index_0] + 1;
}
action set_port() { meta.index_0 = 1; }
@stage(2) table fwd { key = { pkt.flow; } actions = { set_port; } size = 16; }
control main { apply { incr_0(); fwd.apply(); } }
`

func TestParseCompiledDialect(t *testing.T) {
	u, err := ParseAndResolve(compiledSource)
	if err != nil {
		t.Fatal(err)
	}
	reg := u.RegisterByName("cms_0")
	if reg.Width != 16 || reg.Cells.Const != 1024 || reg.Count.Const != 1 || !slices.Equal(reg.Decl.Stages, []int{0, 3}) {
		t.Errorf("register cms_0: width %d, %s cells, %s instances, stages %v", reg.Width, reg.Cells, reg.Count, reg.Decl.Stages)
	}
	if a := u.ActionByName("incr_0"); !a.Commutative || !slices.Equal(a.Decl.Stages, []int{1}) {
		t.Errorf("action incr_0: commutative %v, stages %v", a.Commutative, a.Decl.Stages)
	}
	if a := u.ActionByName("set_port"); a.Decl.Stages != nil {
		t.Errorf("unannotated action set_port has stages %v", a.Decl.Stages)
	}
	if got := u.Tables[0].Decl.Stages; !slices.Equal(got, []int{2}) {
		t.Errorf("table fwd: stages %v", got)
	}
	printed := Print(u.Prog)
	prog, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed source failed: %v\n%s", err, printed)
	}
	if again := Print(prog); again != printed {
		t.Errorf("print/parse/print not a fixed point:\n--- first\n%s\n--- second\n%s", printed, again)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"missing semi", "symbolic int x", "expected ;"},
		{"bad decl", "banana;", "expected declaration"},
		{"bad width", "struct s { bit<0> f; }", "invalid bit width"},
		{"control no apply", "control c { }", "no apply"},
		{"double apply", "control c { apply {} apply {} }", "multiple apply"},
		{"annotation on struct", "@commutative struct s { }", "annotations may only precede action"},
		{"indexed apply", "control c { apply { x[1].apply(); } }", "apply target cannot be indexed"},
		{"bad table prop", "table t { banana = 3; }", "unknown table property"},
		{"if missing paren", "control c { apply { if x { } } }", "expected ("},
		{"stage on struct", "@stage(1) struct s { }", "@stage may only precede"},
		{"empty stage list", "@stage() action a() { }", "expected integer"},
		{"register both forms", "register<bit<8>>(4)[2] r;", "expected identifier"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestResolveCMS(t *testing.T) {
	u := mustResolve(t, cmsSource)

	if len(u.Symbolics) != 2 || u.Symbolics[0].Name != "rows" || u.Symbolics[1].Name != "cols" {
		t.Fatalf("symbolics = %+v, want rows, cols", u.Symbolics)
	}
	if len(u.Assumes) != 2 {
		t.Errorf("assumes = %d, want 2", len(u.Assumes))
	}
	if u.Optimize == nil {
		t.Error("optimize declaration missing")
	}

	cms := u.RegisterByName("cms")
	if cms == nil {
		t.Fatal("register cms not resolved")
	}
	if cms.Width != 32 || cms.Cells.Sym == nil || cms.Cells.Sym.Name != "cols" || cms.Count.Sym == nil || cms.Count.Sym.Name != "rows" {
		t.Errorf("cms = width %d cells %s count %s, want 32/cols/rows", cms.Width, cms.Cells, cms.Count)
	}

	meta := u.StructByName("meta")
	if meta == nil {
		t.Fatal("struct meta not resolved")
	}
	if f := meta.Field("index"); f == nil || !f.Count.IsSymbolic() || f.Count.Sym.Name != "rows" {
		t.Errorf("meta.index not elastic over rows: %+v", f)
	}
	if f := meta.Field("min"); f == nil || f.Count.IsSymbolic() || f.Count.Const != 1 {
		t.Errorf("meta.min not scalar: %+v", f)
	}

	if u.Main == nil || u.Main.Name != "main" {
		t.Fatalf("main control = %v", u.Main)
	}
	if len(u.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(u.Loops))
	}
	for i, l := range u.Loops {
		if l.Sym.Name != "rows" {
			t.Errorf("loop %d bounded by %s, want rows", i, l.Sym.Name)
		}
	}
	if len(u.Invocations) != 2 {
		t.Fatalf("invocations = %d, want 2 (incr, set_min)", len(u.Invocations))
	}
	if u.Invocations[0].Action.Name != "incr" || u.Invocations[1].Action.Name != "set_min" {
		t.Errorf("invocation order = %s, %s", u.Invocations[0].Action.Name, u.Invocations[1].Action.Name)
	}
	if !u.Invocations[0].Elastic() || !u.Invocations[1].Elastic() {
		t.Error("both invocations should be elastic")
	}
	if len(u.Invocations[1].Guards) != 1 {
		t.Errorf("set_min guards = %d, want 1", len(u.Invocations[1].Guards))
	}
}

func TestCommutativeAnnotation(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32> acc; bit<32>[n] v; }
@commutative
action mix()[int i] { meta.acc = meta.v[i]; }
control main { apply { for (i < n) { mix()[i]; } } }
`
	u := mustResolve(t, src)
	if !u.ActionByName("mix").Commutative {
		t.Error("@commutative annotation not honored")
	}
}

func TestConstLoopUnrolling(t *testing.T) {
	src := `
const int K = 3;
struct meta { bit<32> a0; bit<32> a1; bit<32> a2; }
action touch() { meta.a0 = meta.a0 + 1; }
control main { apply { for (k < K) { touch(); } } }
`
	u := mustResolve(t, src)
	if len(u.Loops) != 0 {
		t.Errorf("const loop registered as elastic: %d loops", len(u.Loops))
	}
	if len(u.Invocations) != 3 {
		t.Errorf("invocations = %d, want 3 (const loop unrolled)", len(u.Invocations))
	}
}

func TestSyntheticActionsForBareAssigns(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32>[n] v; bit<32> seed; }
control main {
    apply {
        meta.seed = 7;
        for (i < n) {
            meta.v[i] = meta.seed;
        }
    }
}
`
	u := mustResolve(t, src)
	if len(u.Invocations) != 2 {
		t.Fatalf("invocations = %d, want 2", len(u.Invocations))
	}
	if !u.Invocations[0].Action.Synthetic || u.Invocations[0].Elastic() {
		t.Errorf("first invocation should be synthetic inelastic: %+v", u.Invocations[0])
	}
	if !u.Invocations[1].Action.Synthetic || !u.Invocations[1].Elastic() {
		t.Errorf("second invocation should be synthetic elastic: %+v", u.Invocations[1])
	}
	if !u.Invocations[1].Action.Indexed {
		t.Error("elastic synthetic action should be indexed")
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup symbolic", "symbolic int x; symbolic int x; control main { apply { } }", "redeclared"},
		{"no control", "symbolic int x;", "no control block"},
		{"unknown action", "control main { apply { nop(); } }", "unknown action"},
		{"recursive control", "control a { apply { b.apply(); } } control b { apply { a.apply(); } } control main { apply { a.apply(); } }", "recursively"},
		{"elastic header", "symbolic int n; header h { bit<8>[n] f; } control main { apply { } }", "cannot be elastic"},
		{"unindexed call of indexed", "symbolic int n; struct meta { bit<8>[n] f; } action a()[int i] { meta.f[i] = 1; } control main { apply { a(); } }", "without an index"},
		{"indexed call of unindexed", "struct meta { bit<8> f; } action a() { meta.f = 1; } control main { apply { a()[0]; } }", "not indexed"},
		{"index outside loop", "symbolic int n; struct meta { bit<8>[n] f; } action a()[int i] { meta.f[i] = 1; } control main { apply { a()[q]; } }", "innermost loop variable or a constant"},
		{"action calls action", "struct meta { bit<8> f; } action b() { meta.f = 1; } action a() { b(); } control main { apply { a(); } }", "cannot call"},
		{"loop in action", "symbolic int n; struct meta { bit<8> f; } action a() { for (i < n) { meta.f = 1; } } control main { apply { a(); } }", "loops are not allowed inside actions"},
		{"unknown field", "struct meta { bit<8> f; } action a() { meta.g = 1; } control main { apply { a(); } }", "no field"},
		{"register no index", "register<bit<32>>[64] r; action a() { r = 1; } control main { apply { a(); } }", "requires 1 index"},
		{"multiple optimize", "symbolic int n; optimize n; optimize n; control main { apply { } }", "multiple optimize"},
		{"optimize unknown name", "optimize bogus; control main { apply { } }", "unknown name"},
		{"optimize with call", "symbolic int n; optimize hash(n, 1); control main { apply { } }", "may not contain calls"},
		{"assume field ref", "struct meta { bit<8> f; } assume meta.f > 0; control main { apply { } }", "may not reference"},
		{"negative extent", "struct meta { bit<8>[0] f; } control main { apply { } }", "must be positive"},
		{"table unknown action", "table t { actions = { ghost; } } control main { apply { t.apply(); } }", "unknown action"},
		{"shadowed loop var", "symbolic int n; struct meta { bit<8>[n] f; } action a()[int i] { meta.f[i] = 1; } control main { apply { for (i < n) { for (i < n) { a()[i]; } } } }", "shadows"},
	}
	for _, tc := range cases {
		_, err := ParseAndResolve(tc.src)
		if err == nil {
			t.Errorf("%s: resolved successfully, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestBuiltinArity: hash, min and max take exactly two arguments, in
// action bodies and in apply-block guards alike. Every executor
// evaluates the first two, so a call with another count must not
// resolve.
func TestBuiltinArity(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"min of one argument", "header pkt { bit<32> flow; } struct meta { bit<32> x; } action a() { meta.x = min(pkt.flow); } control main { apply { a(); } }", "1:79: min takes 2 arguments, got 1"},
		{"max of three arguments", "header pkt { bit<32> flow; } struct meta { bit<32> x; } action a() { meta.x = max(pkt.flow, 1, 2); } control main { apply { a(); } }", "max takes 2 arguments, got 3"},
		{"hash of none", "struct meta { bit<32> x; } action a() { meta.x = hash(); } control main { apply { a(); } }", "hash takes 2 arguments, got 0"},
		{"guard min of one argument", "header pkt { bit<32> flow; } struct meta { bit<32> x; } action a() { meta.x = 1; } control main { apply { if (min(pkt.flow) > 0) { a(); } } }", "min takes 2 arguments, got 1"},
	}
	for _, tc := range cases {
		_, err := ParseAndResolve(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	ok := "header pkt { bit<32> flow; } struct meta { bit<32> x; } action a() { meta.x = max(min(pkt.flow, 3), hash(pkt.flow, 1)); } control main { apply { a(); } }"
	if _, err := ParseAndResolve(ok); err != nil {
		t.Errorf("two-argument calls: %v", err)
	}
}

// TestConstantZeroDivisor: a divisor that folds to zero stops every
// packet that evaluates it, so the front end rejects it, at the
// operator, in action bodies, guards and table keys alike.
func TestConstantZeroDivisor(t *testing.T) {
	const decls = "const int Z = 2; header hdr { bit<32> a; } struct meta { bit<32> q; } "
	cases := []struct{ name, src, want string }{
		{"body division", decls + "action a() { meta.q = hdr.a / (2 - 2); } control main { apply { a(); } }", "1:99: division by zero"},
		{"body modulo", decls + "action a() { meta.q = hdr.a % (Z - 2); } control main { apply { a(); } }", "1:99: modulo by zero"},
		{"guard", decls + "action a() { meta.q = 1; } control main { apply { if (hdr.a / -(Z - Z) == 1) { a(); } } }", "1:131: division by zero"},
		{"table key", decls + "action a() { meta.q = 1; } table t { key = { hdr.a % 0; } actions = { a; } } control main { apply { t.apply(); } }", "1:122: modulo by zero"},
	}
	for _, tc := range cases {
		_, err := ParseAndResolve(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	ok := decls + "action a() { meta.q = hdr.a / (Z - 1) + hdr.a % hdr.a; } control main { apply { a(); } }"
	if _, err := ParseAndResolve(ok); err != nil {
		t.Errorf("nonzero and run-time divisors: %v", err)
	}
}

// TestLoopGuardNeedsIndexedCall: a call that runs once, not once per
// iteration (unindexed or at a constant index), cannot sit under a
// condition on the loop variable, which nothing would bind; the error
// names the call's position. Indexed by the loop variable, it resolves.
func TestLoopGuardNeedsIndexedCall(t *testing.T) {
	const decls = "symbolic int n; struct meta { bit<32>[n] v; bit<32> x; } action plain() { meta.x = 1; } action at()[int i] { meta.x = 2; } "
	cases := []struct{ name, src, want string }{
		{"unindexed", decls + "control main { apply { for (i < n) { if (meta.v[i] == 0) { plain(); } } } }", "1:183: action plain is called under a condition on loop variable i, so it must be indexed by i"},
		{"else branch", decls + "control main { apply { for (i < n) { if (meta.v[i] == 0) { at()[i]; } else { plain(); } } } }", "1:201: action plain is called under"},
		{"constant index", decls + "control main { apply { for (i < n) { if (meta.v[i] == 0) { at()[0]; } } } }", "1:183: action at is called under"},
		{"nested loop", decls + "control main { apply { for (i < n) { if (meta.v[i] == 0) { for (j < n) { plain(); } } } } }", "action plain is called under"},
	}
	for _, tc := range cases {
		_, err := ParseAndResolve(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	for _, apply := range []string{
		"for (i < n) { if (meta.v[i] == 0) { at()[i]; } }",
		"for (i < n) { if (meta.x == 0) { plain(); } }",
		"for (i < n) { if (meta.v[i] == 0) { meta.x = 3; } }",
	} {
		if _, err := ParseAndResolve(decls + "control main { apply { " + apply + " } }"); err != nil {
			t.Errorf("%s: %v", apply, err)
		}
	}
}

func TestFixedPHVBits(t *testing.T) {
	src := `
symbolic int n;
header h { bit<16> a; bit<16> b; }
struct meta { bit<32> x; bit<32>[n] v; bit<8>[4] w; }
control main { apply { } }
`
	u := mustResolve(t, src)
	// Fixed: h.a(16) + h.b(16) + meta.x(32) + meta.w(8*4) = 96.
	if got := u.FixedPHVBits(); got != 96 {
		t.Errorf("FixedPHVBits = %d, want 96", got)
	}
	ef := u.ElasticFields()
	if len(ef) != 1 || ef[0].Name != "v" {
		t.Errorf("ElasticFields = %+v, want [meta.v]", ef)
	}
}

func TestTableResolution(t *testing.T) {
	src := `
header ipv4 { bit<32> dst; }
struct meta { bit<9> port; }
action set_port() { meta.port = 1; }
action drop_pkt() { meta.port = 0; }
table fwd {
    key = { ipv4.dst; }
    actions = { set_port; drop_pkt; }
    size = 2048;
}
control main { apply { fwd.apply(); } }
`
	u := mustResolve(t, src)
	if len(u.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(u.Tables))
	}
	tbl := u.Tables[0]
	if tbl.Size != 2048 {
		t.Errorf("table size = %d, want 2048", tbl.Size)
	}
	if tbl.Match == nil || len(tbl.Actions) != 2 {
		t.Fatalf("table match/actions not resolved: %+v", tbl)
	}
	// Invocations: match + 2 actions.
	if len(u.Invocations) != 3 {
		t.Errorf("invocations = %d, want 3", len(u.Invocations))
	}
}

func TestConstExpressions(t *testing.T) {
	src := `
const int A = 4;
const int B = A * 8 + 2;
const int C = B / 2 - 1;
const int D = B % 5;
struct meta { bit<8> f; }
register<bit<8>>[C] r;
action a() { r[meta.f] = r[meta.f] + 1; }
control main { apply { a(); } }
`
	u := mustResolve(t, src)
	if u.Consts["B"] != 34 || u.Consts["C"] != 16 || u.Consts["D"] != 4 {
		t.Errorf("consts = %v, want B=34 C=16 D=4", u.Consts)
	}
	if r := u.RegisterByName("r"); r.Cells.Const != 16 {
		t.Errorf("r cells = %s, want 16", r.Cells)
	}
}

func TestPrintExprParens(t *testing.T) {
	src := "symbolic int a; symbolic int b; symbolic int c; optimize (a + b) * c; control main { apply { } }"
	u := mustResolve(t, src)
	got := PrintExpr(u.Optimize.Util)
	if got != "(a + b) * c" {
		t.Errorf("PrintExpr = %q, want %q", got, "(a + b) * c")
	}
}

func TestNestedElasticLoops(t *testing.T) {
	src := `
symbolic int outer;
symbolic int inner;
struct meta { bit<32>[inner] v; bit<32> acc; }
action bump()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main {
    apply {
        for (o < outer) {
            for (i < inner) {
                bump()[i];
            }
        }
    }
}
`
	u := mustResolve(t, src)
	if len(u.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(u.Loops))
	}
	inv := u.Invocations[0]
	if len(inv.Loops) != 2 {
		t.Fatalf("invocation loop nest = %d, want 2", len(inv.Loops))
	}
	if inv.Loop().Sym.Name != "inner" {
		t.Errorf("innermost loop = %s, want inner", inv.Loop().Sym.Name)
	}
}
