package tv

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"p4all/internal/codegen"
	"p4all/internal/dep"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// The adversarial miscompile suite: every mutation below injects a bug
// codegen could plausibly have — a wrong computed value, an action or
// register annotated with the wrong stage, a dropped invocation guard,
// a narrowed declaration, a register of the wrong size, a missing or
// extra apply step, two fields rendered under one name — and the
// validator must reject every mutant. Each corrupts the emitted
// program's syntax tree before it is rendered, or the rendered text
// itself: the text is what the validator certifies. A mutant that certifies proved is a hole in
// the equivalence proof.

var mutationBase struct {
	sync.Once
	u      *lang.Unit
	layout *ilpgen.Layout
}

// mutationCompile solves the CMS program once; each mutant rebuilds the
// cheap emitted program from the shared layout and corrupts its own copy.
func mutationCompile(t *testing.T) (*lang.Unit, *ilpgen.Layout, *codegen.Concrete) {
	t.Helper()
	mutationBase.Do(func() {
		u, layout, _ := compileFor(t, modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb/4))
		mutationBase.u, mutationBase.layout = u, layout
	})
	if mutationBase.u == nil {
		t.Fatal("base compile failed")
	}
	prog, err := codegen.Build(mutationBase.u, mutationBase.layout)
	if err != nil {
		t.Fatal(err)
	}
	return mutationBase.u, mutationBase.layout, prog
}

func mustReject(t *testing.T, u *lang.Unit, layout *ilpgen.Layout, prog *codegen.Concrete, mutant string) *Certificate {
	t.Helper()
	return mustRejectText(t, u, layout, codegen.Render(prog), mutant)
}

func mustRejectText(t *testing.T, u *lang.Unit, layout *ilpgen.Layout, text, mutant string) *Certificate {
	t.Helper()
	cert := validate(u, layout, text, Options{Name: "mutant-" + mutant}, pathLimit, decisionLimit)
	if cert.Proved() {
		t.Fatalf("mutant %q certified proved: %s", mutant, cert.Summary())
	}
	return cert
}

// wantObligation fails unless cert carries an obligation of the kind.
func wantObligation(t *testing.T, cert *Certificate, kind string) {
	t.Helper()
	for _, ob := range cert.Equivalence.Obligations {
		if ob.Kind == kind {
			return
		}
	}
	t.Errorf("no %s obligation: %+v", kind, cert.Equivalence.Obligations)
}

// decls returns the emitted program's declarations of type T, in order.
func decls[T lang.Decl](prog *codegen.Concrete) []T {
	var out []T
	for _, d := range prog.Program.Decls {
		if t, ok := d.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// applyBlock returns the apply block of the emitted control main.
func applyBlock(prog *codegen.Concrete) *lang.Block {
	return decls[*lang.ControlDecl](prog)[0].Apply
}

// firstArith finds an action whose body starts with an arithmetic
// assignment (the CMS incr actions do) and returns it.
func firstArith(t *testing.T, prog *codegen.Concrete) *lang.ActionDecl {
	t.Helper()
	for _, a := range decls[*lang.ActionDecl](prog) {
		if !strings.Contains(a.Name, "incr") {
			continue
		}
		if len(a.Body.Stmts) > 0 {
			if _, ok := a.Body.Stmts[0].(*lang.AssignStmt); ok {
				return a
			}
		}
	}
	t.Fatal("no arithmetic action found")
	return nil
}

// addOne adds one to the value the first arithmetic action computes.
func addOne(t *testing.T, prog *codegen.Concrete) {
	asg := firstArith(t, prog).Body.Stmts[0].(*lang.AssignStmt)
	asg.RHS = &lang.Binary{Op: lang.PLUS, X: asg.RHS, Y: &lang.IntLit{Value: 1}}
}

func TestMutantWrongValueRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	addOne(t, prog)
	mustReject(t, u, layout, prog, "wrong-value")
}

// TestMutantSwappedApplyStagesRejected swaps the @stage annotations of
// two actions that run in different stages: the apply block and both
// bodies are untouched.
func TestMutantSwappedApplyStagesRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	if !swapActionStages(prog) {
		t.Skip("layout placed everything in one stage")
	}
	cert := mustReject(t, u, layout, prog, "swapped-apply-stage")
	wantObligation(t, cert, "stage-mismatch")
}

// swapActionStages swaps the stages of the first action and the first
// one placed in another stage, reporting whether there was one.
func swapActionStages(prog *codegen.Concrete) bool {
	actions := decls[*lang.ActionDecl](prog)
	for k := 1; k < len(actions); k++ {
		if a, b := actions[0], actions[k]; a.Stages[0] != b.Stages[0] {
			a.Stages, b.Stages = b.Stages, a.Stages
			return true
		}
	}
	return false
}

// restage moves the first arithmetic action's @stage to the next stage.
func restage(t *testing.T, prog *codegen.Concrete, stages int) {
	a := firstArith(t, prog)
	a.Stages = []int{(a.Stages[0] + 1) % stages}
}

func TestMutantRestagedActionRejected(t *testing.T) {
	// Moving only the emitted action's @stage annotation (the apply
	// block untouched) must still fail: the per-stage ALU charge moves.
	u, layout, prog := mutationCompile(t)
	restage(t, prog, layout.Target.Stages)
	mustReject(t, u, layout, prog, "restaged-action")
}

// dropGuard replaces the first guarded apply entry by its bare call,
// reporting whether there was one.
func dropGuard(prog *codegen.Concrete) bool {
	apply := applyBlock(prog)
	for k, st := range apply.Stmts {
		guarded := false
		for is, ok := st.(*lang.IfStmt); ok; is, ok = st.(*lang.IfStmt) {
			st, guarded = is.Then.Stmts[0], true
		}
		if guarded {
			apply.Stmts[k] = st
			return true
		}
	}
	return false
}

func TestMutantDroppedGuardRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	if !dropGuard(prog) {
		t.Fatal("no guarded apply step to mutate")
	}
	mustReject(t, u, layout, prog, "dropped-guard")
}

// TestMutantNarrowedRegisterWidthRejected halves the declared bit<W>
// of the register the layout places last: stores wrap at the
// declaration. The sketch's rows feed one min chain in stage order, so
// a narrowed row any later stage reads shows first as a branch the
// source never takes (unaligned-branch); the last row's narrowed
// counter shows in the register state itself.
func TestMutantNarrowedRegisterWidthRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	regs := decls[*lang.RegisterDecl](prog)
	last := regs[0]
	for _, r := range regs {
		if slices.Max(r.Stages) > slices.Max(last.Stages) {
			last = r
		}
	}
	last.Elem.Bits /= 2
	cert := mustReject(t, u, layout, prog, "narrowed-width")
	wantObligation(t, cert, "register-mismatch")
}

// TestMutantHalvedRegisterCellsRejected halves the first register's
// declared cell count.
func TestMutantHalvedRegisterCellsRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	decls[*lang.RegisterDecl](prog)[0].Cells.(*lang.IntLit).Value /= 2
	cert := mustReject(t, u, layout, prog, "halved-cells")
	wantObligation(t, cert, "declaration-mismatch")
}

// TestMutantMovedRegisterStageRejected moves the first register's
// @stage annotation to the next stage.
func TestMutantMovedRegisterStageRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	r := decls[*lang.RegisterDecl](prog)[0]
	r.Stages = []int{(r.Stages[0] + 1) % layout.Target.Stages}
	cert := mustReject(t, u, layout, prog, "moved-register-stage")
	wantObligation(t, cert, "stage-mismatch")
}

// TestMutantNarrowedFieldsRejected declares every header and metadata
// field bit<8>: reads and writes wrap at the declarations.
func TestMutantNarrowedFieldsRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	narrowFields(prog)
	mustReject(t, u, layout, prog, "narrowed-fields")
}

func narrowFields(prog *codegen.Concrete) {
	for _, s := range decls[*lang.StructDecl](prog) {
		for j := range s.Fields {
			s.Fields[j].Type.Bits = 8
		}
	}
}

// TestCollidingInstanceNameRejected compiles a CMS whose metadata
// declares a scalar index_0 beside the elastic index: the text declares
// bit<32> index_0 twice, one name for two source fields, and cannot
// certify.
func TestCollidingInstanceNameRejected(t *testing.T) {
	src := modules.StandaloneCMS()
	for _, edit := range [][2]string{
		{"    bit<32> min;\n", "    bit<32> min;\n    bit<32> index_0;\n"},
		{"cms_meta.min = 4294967295;\n", "cms_meta.min = 4294967295;\n    cms_meta.index_0 = 7;\n"},
	} {
		if !strings.Contains(src, edit[0]) {
			t.Fatalf("the CMS source lacks %q", edit[0])
		}
		src = strings.Replace(src, edit[0], edit[1], 1)
	}
	u, layout, prog := compileFor(t, src, pisa.EvalTarget(pisa.Mb/4))
	cert := mustReject(t, u, layout, prog, "colliding-instance-name")
	wantObligation(t, cert, "unparsable-text")
}

// multiGuard invokes one action under two nested ifs: its apply entry
// carries two guards.
const multiGuard = `
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> r; }
action mark() { meta.r = pkt.a + 1; }
control main { apply { if (pkt.a == 1) { if (pkt.b == 2) { mark(); } } } }
`

// TestMutantDroppedConjunctRejected drops the inner if of a two-guard
// apply entry from the rendered text, closing brace and all, after the
// text as rendered certifies.
func TestMutantDroppedConjunctRejected(t *testing.T) {
	u, layout, prog := compileFor(t, multiGuard, pisa.EvalTarget(pisa.Mb))
	mustProve(t, Validate(u, layout, prog, Options{Name: "multi-guard"}))
	lines := strings.Split(codegen.Render(prog), "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, "if (pkt.b == 2) {") })
	if i < 0 || strings.TrimSpace(lines[i+2]) != "}" {
		t.Fatalf("no inner guard to drop in:\n%s", strings.Join(lines, "\n"))
	}
	lines = slices.Delete(lines, i+2, i+3)
	lines = slices.Delete(lines, i, i+1)
	mustRejectText(t, u, layout, strings.Join(lines, "\n"), "dropped-conjunct")
}

// dropLastApplyStep deletes the last entry of the apply block.
func dropLastApplyStep(prog *codegen.Concrete) {
	apply := applyBlock(prog)
	apply.Stmts = apply.Stmts[:len(apply.Stmts)-1]
}

func TestMutantDroppedApplyStepRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	dropLastApplyStep(prog)
	cert := mustReject(t, u, layout, prog, "dropped-apply-step")
	wantObligation(t, cert, "apply-mismatch")
}

// dropAction deletes the first arithmetic action's declaration.
func dropAction(t *testing.T, prog *codegen.Concrete) {
	a := firstArith(t, prog)
	prog.Program.Decls = slices.DeleteFunc(prog.Program.Decls, func(d lang.Decl) bool { return d == a })
}

func TestMutantMissingActionRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	dropAction(t, prog)
	mustReject(t, u, layout, prog, "missing-action")
}

// ---- layout tampering: the independent audit must catch it ----

func cloneLayout(l *ilpgen.Layout) *ilpgen.Layout {
	c := *l
	c.Symbolics = make(map[string]int64, len(l.Symbolics))
	for k, v := range l.Symbolics {
		c.Symbolics[k] = v
	}
	c.Placements = append([]ilpgen.Placement(nil), l.Placements...)
	c.Registers = make([]ilpgen.RegPlacement, len(l.Registers))
	for i, rp := range l.Registers {
		c.Registers[i] = rp
		c.Registers[i].Stages = append([]int(nil), rp.Stages...)
		c.Registers[i].Bits = make(map[int]int64, len(rp.Bits))
		for s, b := range rp.Bits {
			c.Registers[i].Bits[s] = b
		}
	}
	c.Stages = append([]ilpgen.StageUse(nil), l.Stages...)
	return &c
}

func auditMustFail(t *testing.T, u *lang.Unit, layout *ilpgen.Layout, mutant string) {
	t.Helper()
	res := Audit(u, layout)
	if !res.Failed() {
		t.Fatalf("audit passed tampered layout %q", mutant)
	}
}

func TestAuditRejectsInflatedRegisterBits(t *testing.T) {
	u, layout, _ := mutationCompile(t)
	l := cloneLayout(layout)
	rp := &l.Registers[0]
	rp.Bits[rp.Stages[0]] += int64(rp.Width)
	auditMustFail(t, u, l, "inflated-bits")
}

func TestAuditRejectsMovedPlacement(t *testing.T) {
	u, layout, _ := mutationCompile(t)
	l := cloneLayout(layout)
	moved := false
	for i := range l.Placements {
		if l.Placements[i].Stage > 0 {
			l.Placements[i].Stage = 0
			moved = true
			break
		}
	}
	if !moved {
		t.Skip("single-stage layout")
	}
	auditMustFail(t, u, l, "moved-placement")
}

func TestAuditRejectsTamperedSymbolic(t *testing.T) {
	u, layout, _ := mutationCompile(t)
	l := cloneLayout(layout)
	// A solved value out of sync with the placements: the rebuilt
	// instance set no longer matches the placement bijection.
	l.Symbolics["cms_rows"] = l.Symbolics["cms_rows"] + 7
	auditMustFail(t, u, l, "tampered-symbolic")
}

// TestAuditRejectsIllegalLayouts tampers with the legal CMS layout once
// per rule a layout must keep — each stage within its stateful-ALU,
// stateless-ALU, hash-unit and memory budgets, precedence edges in
// increasing stages, exclusive nodes in distinct stages, every loop
// within its unroll bound — and the audit must fail the check that
// guards the rule, with a detail naming it.
func TestAuditRejectsIllegalLayouts(t *testing.T) {
	u, layout, _ := mutationCompile(t)
	counts := dep.Counts{}
	for _, lp := range u.Loops {
		counts[lp.Sym] = int(layout.Symbolics[lp.Sym.Name])
	}
	graph := dep.Build(u, counts, layout.Target)
	stage := map[string]int{}
	for _, pl := range layout.Placements {
		stage[pl.Name] = pl.Stage
	}
	nodeStage := func(n *dep.Node) int { return stage[n.Instances[0].Name()] }
	// moveNode places every instance of node n in stage s.
	moveNode := func(l *ilpgen.Layout, n *dep.Node, s int) {
		for _, in := range n.Instances {
			for i := range l.Placements {
				if l.Placements[i].Name == in.Name() {
					l.Placements[i].Stage = s
				}
			}
		}
	}
	// edge returns the first pair (a, b) of nodes with b in adj[a].
	edge := func(adj [][]int) (*dep.Node, *dep.Node) {
		for a, succ := range adj {
			if len(succ) > 0 {
				return graph.Nodes[a], graph.Nodes[succ[0]]
			}
		}
		t.Fatal("the CMS graph has no such edge")
		return nil, nil
	}
	// hashing returns two nodes that hash, in distinct stages.
	hashing := func() (*dep.Node, *dep.Node) {
		var found []*dep.Node
		for _, n := range graph.Nodes {
			if n.Hashes > 0 && (len(found) == 0 || nodeStage(n) != nodeStage(found[0])) {
				found = append(found, n)
			}
			if len(found) == 2 {
				return found[0], found[1]
			}
		}
		t.Fatal("the CMS graph has no two hashing nodes in distinct stages")
		return nil, nil
	}
	peak := func(use func(ilpgen.StageUse) int64) int64 {
		var m int64
		for _, su := range layout.Stages {
			m = max(m, use(su))
		}
		return m
	}
	// shrink replaces the layout's target with a copy cut down by f.
	shrink := func(l *ilpgen.Layout, f func(*pisa.Target)) {
		tgt := *l.Target
		f(&tgt)
		l.Target = &tgt
	}
	bounds, err := unroll.UpperBounds(u, layout.Target)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, check, detail string
		mutate              func(l *ilpgen.Layout)
	}{
		{"stateful-alus", "alu-budget", "stateful ALUs", func(l *ilpgen.Layout) {
			shrink(l, func(tgt *pisa.Target) {
				tgt.StatefulALUs = int(peak(func(su ilpgen.StageUse) int64 { return int64(su.Hf) })) - 1
			})
		}},
		{"stateless-alus", "alu-budget", "stateless ALUs", func(l *ilpgen.Layout) {
			shrink(l, func(tgt *pisa.Target) {
				tgt.StatelessALUs = int(peak(func(su ilpgen.StageUse) int64 { return int64(su.Hl) })) - 1
			})
		}},
		// HashUnits 0 means unlimited, so two hashing nodes share a
		// stage of a one-unit target.
		{"hash-units", "alu-budget", "hash units", func(l *ilpgen.Layout) {
			a, b := hashing()
			moveNode(l, b, nodeStage(a))
			shrink(l, func(tgt *pisa.Target) { tgt.HashUnits = 1 })
		}},
		{"memory", "memory-budget", "memory bits", func(l *ilpgen.Layout) {
			shrink(l, func(tgt *pisa.Target) {
				tgt.MemoryBits = int(peak(func(su ilpgen.StageUse) int64 { return su.MemoryBits })) - 1
			})
		}},
		{"precedence-inverted", "precedence", "must precede", func(l *ilpgen.Layout) {
			a, b := edge(graph.Prec)
			moveNode(l, a, nodeStage(b))
			moveNode(l, b, nodeStage(a))
		}},
		{"exclusive-shared", "exclusion", "must not share", func(l *ilpgen.Layout) {
			a, b := edge(graph.Excl)
			moveNode(l, b, nodeStage(a))
		}},
		{"loop-over-unroll-bound", "placement-bijection", "no placement", func(l *ilpgen.Layout) {
			for sym, k := range bounds.LoopBound {
				l.Symbolics[sym.Name] = int64(k) + 1
			}
		}},
	} {
		l := cloneLayout(layout)
		c.mutate(l)
		res := Audit(u, l)
		var got *Check
		for i := range res.Checks {
			if res.Checks[i].Name == c.check {
				got = &res.Checks[i]
			}
		}
		switch {
		case got == nil:
			t.Errorf("%s: the audit ran no %s check", c.name, c.check)
		case got.OK:
			t.Errorf("%s: the audit's %s check passed the tampered layout", c.name, c.check)
		case !strings.Contains(got.Detail, c.detail):
			t.Errorf("%s: %s failed with %q, want a detail naming %q", c.name, c.check, got.Detail, c.detail)
		}
	}
}

// guardReadSource reads register s in mark's guard after wr writes it,
// so mark belongs in the stage that holds s.
const guardReadSource = `
header pkt { bit<32> a; }
struct meta { bit<32> z1; bit<32> z2; bit<32> marked; }
register<bit<32>>[16] s;
action c1() { meta.z1 = pkt.a + 1; }
action c2() { meta.z2 = meta.z1 + 1; }
action wr() { s[0] = meta.z2; }
action mark() { meta.marked = 1; }
control main { apply { c1(); c2(); wr(); if (s[0] == 7) { mark(); } } }
`

// TestRegisterReadOffStageRejected moves mark to stage 0, away from
// register s, and re-renders: both programs still run in schedule order
// and agree on every path, so only the text's own register-stage check
// catches the guard reading s where s is not.
func TestRegisterReadOffStageRejected(t *testing.T) {
	u, layout, prog := compileFor(t, guardReadSource, pisa.RunningExampleTarget())
	mustProve(t, validate(u, layout, codegen.Render(prog), Options{Name: "guard-read"}, pathLimit, decisionLimit))
	l := cloneLayout(layout)
	for i := range l.Placements {
		if l.Placements[i].Action == "mark" {
			l.Placements[i].Stage = 0
		}
	}
	moved, err := codegen.Build(u, l)
	if err != nil {
		t.Fatal(err)
	}
	wantObligation(t, mustReject(t, u, l, moved, "register-stage"), "register-stage")
}
