package tv

import (
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
// codegen could plausibly have — a wrong computed value, an action
// scheduled in the wrong stage, a dropped invocation guard, a narrowed
// width, a missing or extra apply step — and the validator must reject
// every mutant. A mutant that certifies proved is a hole in the
// equivalence proof.

var mutationBase struct {
	sync.Once
	u      *lang.Unit
	layout *ilpgen.Layout
}

// mutationCompile solves the CMS program once; each mutant rebuilds the
// cheap Concrete IR from the shared layout and corrupts its own copy.
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
	cert := Validate(u, layout, prog, Options{Name: "mutant-" + mutant})
	if cert.Proved() {
		t.Fatalf("mutant %q certified proved: %s", mutant, cert.Summary())
	}
	return cert
}

// firstArith finds an action whose body starts with an arithmetic
// assignment (the CMS incr actions do) and returns it.
func firstArith(t *testing.T, prog *codegen.Concrete) *codegen.CAction {
	t.Helper()
	for i := range prog.Actions {
		ca := &prog.Actions[i]
		if !strings.Contains(ca.Name, "incr") {
			continue
		}
		if len(ca.Body) > 0 {
			if _, ok := ca.Body[0].(*codegen.CAssign); ok {
				return ca
			}
		}
	}
	t.Fatal("no arithmetic action found")
	return nil
}

func TestMutantWrongValueRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	ca := firstArith(t, prog)
	asg := ca.Body[0].(*codegen.CAssign)
	asg.RHS = &codegen.CBinary{Op: lang.PLUS, X: asg.RHS, Y: &codegen.CInt{Value: 1}}
	mustReject(t, u, layout, prog, "wrong-value")
}

func TestMutantSwappedApplyStagesRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	i, j := -1, -1
	for k := range prog.Apply {
		if prog.Apply[k].Action == "" {
			continue
		}
		if i < 0 {
			i = k
		} else if prog.Apply[k].Stage != prog.Apply[i].Stage {
			j = k
			break
		}
	}
	if j < 0 {
		t.Skip("layout placed everything in one stage")
	}
	prog.Apply[i].Stage, prog.Apply[j].Stage = prog.Apply[j].Stage, prog.Apply[i].Stage
	cert := mustReject(t, u, layout, prog, "swapped-apply-stage")
	found := false
	for _, ob := range cert.Equivalence.Obligations {
		if ob.Kind == "apply-mismatch" {
			found = true
		}
	}
	if !found {
		t.Errorf("no apply-mismatch obligation: %+v", cert.Equivalence.Obligations)
	}
}

func TestMutantRestagedActionRejected(t *testing.T) {
	// Moving only the emitted action's @stage annotation (the apply
	// block untouched) must still fail: the per-stage ALU charge moves.
	u, layout, prog := mutationCompile(t)
	ca := firstArith(t, prog)
	ca.Stage = (ca.Stage + 1) % layout.Target.Stages
	mustReject(t, u, layout, prog, "restaged-action")
}

func TestMutantDroppedGuardRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	mutated := false
	for k := range prog.Apply {
		if len(prog.Apply[k].Guards) > 0 {
			prog.Apply[k].Guards = nil
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no guarded apply step to mutate")
	}
	mustReject(t, u, layout, prog, "dropped-guard")
}

func TestMutantNarrowedRegisterWidthRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	ca := firstArith(t, prog)
	narrowed := false
	var narrow func(e codegen.CExpr)
	narrow = func(e codegen.CExpr) {
		switch e := e.(type) {
		case *codegen.CRegRef:
			e.Width = e.Width / 2
			narrowed = true
		case *codegen.CBinary:
			narrow(e.X)
			narrow(e.Y)
		case *codegen.CUnary:
			narrow(e.X)
		case *codegen.CCall:
			for _, a := range e.Args {
				narrow(a)
			}
		}
	}
	for _, s := range ca.Body {
		if asg, ok := s.(*codegen.CAssign); ok {
			narrow(asg.LHS)
			narrow(asg.RHS)
		}
	}
	if !narrowed {
		t.Fatal("no register reference to narrow")
	}
	mustReject(t, u, layout, prog, "narrowed-width")
}

func TestMutantDroppedApplyStepRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	prog.Apply = prog.Apply[:len(prog.Apply)-1]
	cert := mustReject(t, u, layout, prog, "dropped-apply-step")
	found := false
	for _, ob := range cert.Equivalence.Obligations {
		if ob.Kind == "apply-mismatch" {
			found = true
		}
	}
	if !found {
		t.Errorf("no apply-mismatch obligation: %+v", cert.Equivalence.Obligations)
	}
}

func TestMutantMissingActionRejected(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	name := firstArith(t, prog).Name
	kept := prog.Actions[:0]
	for _, ca := range prog.Actions {
		if ca.Name != name {
			kept = append(kept, ca)
		}
	}
	prog.Actions = kept
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
