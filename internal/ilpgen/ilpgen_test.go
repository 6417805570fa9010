package ilpgen

import (
	"errors"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/lang"
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

action set_min()[int i] {
    meta.min = meta.count[i];
}

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

// AuditLayout fails t unless tv.Audit passes layout l of unit u; tv
// imports this package, so audit_test.go (package ilpgen_test) sets it.
var AuditLayout func(t testing.TB, u *lang.Unit, l *Layout)

func compile(t *testing.T, src string, target pisa.Target) (*ILP, *Layout) {
	t.Helper()
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	p, err := Generate(u, &target, bounds)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	layout, err := p.Solve(ilp.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	AuditLayout(t, u, layout)
	return p, layout
}

// TestCMSRunningExample: on the S=3, F=L=2 target the loop bound is 2
// (Figure 9) but the finer ILP discovers only one iteration actually
// fits (the second min/incr pair exhausts the 2 stateless ALUs per
// stage), illustrating §4's point that the ILP refines the coarse
// unroll bound.
func TestCMSRunningExample(t *testing.T) {
	tgt := pisa.RunningExampleTarget()
	_, layout := compile(t, cmsSource, tgt)
	if got := layout.Symbolic("rows"); got != 1 {
		t.Errorf("rows = %d, want 1\n%s", got, layout)
	}
	if got := layout.Symbolic("cols"); got != 64 {
		t.Errorf("cols = %d, want 64 (2048b / 32b)\n%s", got, layout)
	}
}

// TestCMSElasticStretch: on the paper's evaluation target the CMS
// stretches to one row per available stage pair and a full stage of
// memory per row.
func TestCMSElasticStretch(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, cmsSource, tgt)
	rows, cols := layout.Symbolic("rows"), layout.Symbolic("cols")
	if rows != 9 {
		t.Errorf("rows = %d, want 9 (10-stage pipeline, incr->min chain)", rows)
	}
	if cols != int64(pisa.Mb/32) {
		t.Errorf("cols = %d, want %d (one full stage of 32-bit cells)", cols, pisa.Mb/32)
	}
	if layout.Objective < float64(rows*cols)-1 {
		t.Errorf("objective %g < rows*cols = %d", layout.Objective, rows*cols)
	}
}

func TestLayoutPlacementsConsistent(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, cmsSource, tgt)
	// Each placed incr[i] must precede its set_min[i].
	incrStage := map[int]int{}
	minStage := map[int]int{}
	for _, pl := range layout.Placements {
		switch pl.Action {
		case "incr":
			incrStage[pl.Iter] = pl.Stage
		case "set_min":
			minStage[pl.Iter] = pl.Stage
		}
	}
	if len(incrStage) != len(minStage) {
		t.Fatalf("incr placements %d != set_min placements %d (conditional constraint broken)", len(incrStage), len(minStage))
	}
	for i, is := range incrStage {
		ms, ok := minStage[i]
		if !ok {
			t.Errorf("incr[%d] placed but set_min[%d] missing", i, i)
			continue
		}
		if is >= ms {
			t.Errorf("incr[%d] at stage %d not before set_min[%d] at %d", i, is, i, ms)
		}
	}
	// set_min stages pairwise distinct (exclusion).
	seen := map[int]bool{}
	for _, s := range minStage {
		if seen[s] {
			t.Errorf("two set_min instances share stage %d", s)
		}
		seen[s] = true
	}
	// Register memory placed exactly at the incr stages.
	for _, rp := range layout.Registers {
		if len(rp.Stages) != 1 {
			t.Errorf("register %s/%d spans %v without spreading enabled", rp.Register, rp.Index, rp.Stages)
			continue
		}
		if want := incrStage[rp.Index]; rp.Stages[0] != want {
			t.Errorf("register %s/%d in stage %d, its action in %d", rp.Register, rp.Index, rp.Stages[0], want)
		}
	}
}

func TestIterationContiguity(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, cmsSource, tgt)
	iters := map[int]bool{}
	for _, pl := range layout.Placements {
		if pl.Action == "incr" {
			iters[pl.Iter] = true
		}
	}
	rows := int(layout.Symbolic("rows"))
	for i := 0; i < rows; i++ {
		if !iters[i] {
			t.Errorf("iteration %d missing though rows = %d", i, rows)
		}
	}
}

func TestInfeasibleProgram(t *testing.T) {
	src := cmsSource + "\nassume rows >= 5;\n"
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.RunningExampleTarget() // only 1 row fits
	bounds, err := unroll.UpperBounds(u, &tgt)
	if err != nil {
		t.Fatal(err)
	}
	// The assume caps the unroll search at... rows >= 5 has no upper
	// bound, so unroll still stops at the path criterion (K=2), making
	// the ILP infeasible against rows >= 5.
	p, err := Generate(u, &tgt, bounds)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(ilp.Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAssumeLowerBoundRespected(t *testing.T) {
	src := cmsSource + "\nassume rows >= 3;\nassume cols >= 128;\n"
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, src, tgt)
	if layout.Symbolic("rows") < 3 {
		t.Errorf("rows = %d violates assume rows >= 3", layout.Symbolic("rows"))
	}
	if layout.Symbolic("cols") < 128 {
		t.Errorf("cols = %d violates assume cols >= 128", layout.Symbolic("cols"))
	}
}

func TestAssumeUpperBoundRespected(t *testing.T) {
	src := cmsSource + "\nassume rows <= 2 && cols <= 1000;\n"
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, src, tgt)
	if layout.Symbolic("rows") != 2 {
		t.Errorf("rows = %d, want 2 (assume cap, maximizing)", layout.Symbolic("rows"))
	}
	if layout.Symbolic("cols") != 1000 {
		t.Errorf("cols = %d, want 1000 (assume cap)", layout.Symbolic("cols"))
	}
}

func TestUtilityWeightsChangeOutcome(t *testing.T) {
	// Two structures compete for memory; flipping the utility weights
	// must flip who wins. Use a tight single-stage-memory target.
	src := `
symbolic int a_sz;
symbolic int b_sz;
header h { bit<32> key; }
struct meta { bit<32> ai; bit<32> bi; }
register<bit<32>>[a_sz] a;
register<bit<32>>[b_sz] b;
action use_a() { meta.ai = hash(h.key, 1) % a_sz; a[meta.ai] = a[meta.ai] + 1; }
action use_b() { meta.bi = hash(h.key, 2) % b_sz; b[meta.bi] = b[meta.bi] + 1; }
control main { apply { use_a(); use_b(); } }
optimize WEIGHTS;
`
	tgt := pisa.Target{Name: "duel", Stages: 1, MemoryBits: 3200, StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096}
	// Both actions share stage 0; memory must be split 100 cells total.
	aHeavy := strings.Replace(src, "WEIGHTS", "0.9 * a_sz + 0.1 * b_sz", 1)
	_, la := compile(t, aHeavy, tgt)
	bHeavy := strings.Replace(src, "WEIGHTS", "0.1 * a_sz + 0.9 * b_sz", 1)
	_, lb := compile(t, bHeavy, tgt)
	if la.Symbolic("a_sz") <= la.Symbolic("b_sz") {
		t.Errorf("a-heavy utility: a_sz = %d <= b_sz = %d", la.Symbolic("a_sz"), la.Symbolic("b_sz"))
	}
	if lb.Symbolic("b_sz") <= lb.Symbolic("a_sz") {
		t.Errorf("b-heavy utility: b_sz = %d <= a_sz = %d", lb.Symbolic("b_sz"), lb.Symbolic("a_sz"))
	}
	if got := la.Symbolic("a_sz") + la.Symbolic("b_sz"); got != 100 {
		t.Errorf("total cells = %d, want 100 (full memory used)", got)
	}
}

func TestDefaultObjectiveWithoutOptimize(t *testing.T) {
	src := strings.Replace(cmsSource, "optimize rows * cols;", "", 1)
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, src, tgt)
	if layout.Symbolic("rows") < 1 || layout.Symbolic("cols") < 1 {
		t.Errorf("default objective produced empty layout: %v", layout.Symbolics)
	}
}

func TestRejectLoopSymbolicAsCells(t *testing.T) {
	src := `
symbolic int n;
header h { bit<32> key; }
struct meta { bit<32>[n] idx; }
register<bit<32>>[n][n] r;
action a()[int i] { meta.idx[i] = hash(h.key, i) % n; r[i][meta.idx[i]] = 1; }
control main { apply { for (i < n) { a()[i]; } } }
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
	if _, err := Generate(u, &tgt, bounds); err == nil || !strings.Contains(err.Error(), "use two symbolics") {
		t.Errorf("Generate err = %v, want loop-vs-cells conflict", err)
	}
}

func TestRejectSharedRegisterAcrossIterations(t *testing.T) {
	src := `
symbolic int n;
struct meta { bit<32>[n] v; }
register<bit<32>>[64] shared;
action a()[int i] { meta.v[i] = 1; shared[meta.v[i]] = shared[meta.v[i]] + 1; }
control main { apply { for (i < n) { a()[i]; } } }
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
	if _, err := Generate(u, &tgt, bounds); err == nil || !strings.Contains(err.Error(), "index the register by the loop variable") {
		t.Errorf("Generate err = %v, want shared-register rejection", err)
	}
}

func TestHashUnitConstraint(t *testing.T) {
	// Two hashing actions, one hash unit per stage: they must land in
	// different stages even without data dependencies.
	src := `
symbolic int a_sz;
header h { bit<32> key; }
struct meta { bit<32> ai; bit<32> bi; }
register<bit<32>>[a_sz] a;
register<bit<32>>[64] b;
action use_a() { meta.ai = hash(h.key, 1) % a_sz; a[meta.ai] = a[meta.ai] + 1; }
action use_b() { meta.bi = hash(h.key, 2) % 64; b[meta.bi] = b[meta.bi] + 1; }
control main { apply { use_a(); use_b(); } }
`
	tgt := pisa.Target{Name: "one-hash", Stages: 2, MemoryBits: 65536, StatefulALUs: 4, StatelessALUs: 8, PHVBits: 4096, HashUnits: 1}
	_, layout := compile(t, src, tgt)
	stages := map[string]int{}
	for _, pl := range layout.Placements {
		stages[pl.Action] = pl.Stage
	}
	if stages["use_a"] == stages["use_b"] {
		t.Errorf("hash-unit constraint ignored: both actions in stage %d", stages["use_a"])
	}
}

func TestStatsPopulated(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	p, layout := compile(t, cmsSource, tgt)
	if layout.Stats.Vars != p.Model.NumVars() || layout.Stats.Vars == 0 {
		t.Errorf("stats vars = %d, model vars = %d", layout.Stats.Vars, p.Model.NumVars())
	}
	if layout.Stats.Constrs == 0 || layout.Stats.Nodes == 0 {
		t.Errorf("stats incomplete: %+v", layout.Stats)
	}
}

func TestLayoutString(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	_, layout := compile(t, cmsSource, tgt)
	s := layout.String()
	for _, want := range []string{"rows =", "cols =", "stage"} {
		if !strings.Contains(s, want) {
			t.Errorf("layout report missing %q:\n%s", want, s)
		}
	}
}

// TestRegisterSpreadExtension exercises the §4.4 multi-stage register
// extension: with spreading enabled, a single register array may grow
// beyond one stage's memory by occupying several stages.
func TestRegisterSpreadExtension(t *testing.T) {
	src := `
symbolic int sz;
header h { bit<32> key; }
struct meta { bit<32> idx; }
register<bit<32>>[sz] big;
action bump() { meta.idx = hash(h.key, 1) % sz; big[meta.idx] = big[meta.idx] + 1; }
control main { apply { bump(); } }
optimize sz;
`
	base := pisa.Target{Name: "spread", Stages: 4, MemoryBits: 4096, StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096}

	compileWith := func(tgt pisa.Target) *Layout {
		u, err := lang.ParseAndResolve(src)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := unroll.UpperBounds(u, &tgt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Generate(u, &tgt, bounds)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := p.Solve(ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		AuditLayout(t, u, layout)
		return layout
	}

	noSpread := compileWith(base)
	if got := noSpread.Symbolic("sz"); got != 4096/32 {
		t.Errorf("without spreading sz = %d, want %d (one stage)", got, 4096/32)
	}

	spread := base
	spread.AllowRegisterSpread = true
	wide := compileWith(spread)
	if got := wide.Symbolic("sz"); got <= noSpread.Symbolic("sz") {
		t.Errorf("spreading did not grow the register: %d <= %d", got, noSpread.Symbolic("sz"))
	}
	// The register must genuinely occupy several stages.
	multi := false
	for _, rp := range wide.Registers {
		if rp.Register == "big" && len(rp.Stages) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Errorf("register did not span stages: %+v", wide.Registers)
	}
}

// TestRegisterBitsAreCellsTimesWidth: the ILP's memory variables are
// continuous, so registers sharing a stage are granted shares that are
// no multiple of their element width (here 1000/3 bits each for 32-bit
// cells). The layout must record what the emitted register<bit<W>>[Cells]
// occupies — Cells*Width, per instance and per stage — which is what
// the translation validator's register-shape audit re-derives.
func TestRegisterBitsAreCellsTimesWidth(t *testing.T) {
	check := func(t *testing.T, l *Layout, regs int) {
		t.Helper()
		if len(l.Registers) != regs {
			t.Fatalf("%d registers placed, want %d", len(l.Registers), regs)
		}
		perStage := make([]int64, len(l.Stages))
		for _, rp := range l.Registers {
			if rp.Cells != l.Symbolic("sz") {
				t.Errorf("%s/%d: %d cells, solved sz = %d", rp.Register, rp.Index, rp.Cells, l.Symbolic("sz"))
			}
			var total int64
			for i, s := range rp.Stages {
				if i > 0 && s != rp.Stages[i-1]+1 {
					t.Errorf("%s/%d: stages %v not consecutive", rp.Register, rp.Index, rp.Stages)
				}
				total += rp.Bits[s]
				perStage[s] += rp.Bits[s]
			}
			if len(rp.Bits) != len(rp.Stages) {
				t.Errorf("%s/%d: Bits %v vs Stages %v", rp.Register, rp.Index, rp.Bits, rp.Stages)
			}
			if want := rp.Cells * int64(rp.Width); total != want {
				t.Errorf("%s/%d: %d bits recorded for %d cells of width %d, want %d", rp.Register, rp.Index, total, rp.Cells, rp.Width, want)
			}
		}
		for s, use := range l.Stages {
			if use.MemoryBits != perStage[s] {
				t.Errorf("stage %d: MemoryBits %d, registers there hold %d", s, use.MemoryBits, perStage[s])
			}
		}
	}

	t.Run("shared-stage", func(t *testing.T) {
		src := `
symbolic int sz;
header h { bit<32> key; }
struct meta { bit<32> idx; }
register<bit<32>>[sz] a;
register<bit<32>>[sz] b;
register<bit<32>>[sz] c;
action bump() {
    meta.idx = hash(h.key, 1) % sz;
    a[meta.idx] = a[meta.idx] + 1;
    b[meta.idx] = b[meta.idx] + 1;
    c[meta.idx] = c[meta.idx] + 1;
}
control main { apply { bump(); } }
optimize sz;
`
		tgt := pisa.Target{Name: "shared", Stages: 1, MemoryBits: 1000, StatefulALUs: 3, StatelessALUs: 8, PHVBits: 4096}
		_, l := compile(t, src, tgt)
		if got := l.Symbolic("sz"); got != 1000/3/32 {
			t.Fatalf("sz = %d, want %d (three registers sharing 1000 bits)", got, 1000/3/32)
		}
		check(t, l, 3)
	})

	t.Run("spread", func(t *testing.T) {
		src := `
symbolic int sz;
header h { bit<32> key; }
struct meta { bit<32> idx; }
register<bit<32>>[sz] big;
action bump() { meta.idx = hash(h.key, 1) % sz; big[meta.idx] = big[meta.idx] + 1; }
control main { apply { bump(); } }
optimize sz;
`
		tgt := pisa.Target{Name: "spread", Stages: 3, MemoryBits: 1000, StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096, AllowRegisterSpread: true}
		_, l := compile(t, src, tgt)
		if got := l.Symbolic("sz"); got != 3000/32 {
			t.Fatalf("sz = %d, want %d (one register over three 1000-bit stages)", got, 3000/32)
		}
		check(t, l, 1)
	})
}

// TestStageWindowRootBound pins what tightenStageWindows buys (DESIGN.md
// §5) as a count: NetCache on the 1.75 Mb/stage evaluation target has
// root LP bound 309 657.6 over a best layout worth 304 947.2. Without the
// stage-window fixings the relaxation spends memory in stages no
// register can integrally occupy and the bound is 332 595.2 (measured
// at 6ab568b with the cut switched off), so losing the cut fails here.
func TestStageWindowRootBound(t *testing.T) {
	u, err := lang.ParseAndResolve(apps.NetCache(apps.NetCacheConfig{}).Source)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.EvalTarget(7 * pisa.Mb / 4)
	bounds, err := unroll.UpperBounds(u, &tgt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(u, &tgt, bounds)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ilp.Solve(p.Model, ilp.Options{NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.RootBound < 304947.2 || sol.RootBound > 310000 {
		t.Errorf("root bound %.1f, want within [304947.2, 310000]", sol.RootBound)
	}
}
