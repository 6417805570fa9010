package tv

import (
	"fmt"
	"reflect"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/codegen"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// The enumerator resumes each path at step checkpoints instead of
// replaying it from the root, and the certificate's paths, decisions and
// pruned_decisions are defined by what replaying every path from the
// root counts. These tests hold it to that definition: replay-from-root
// survives here as the reference, and the two must agree on every
// counted result.

// replayFromRoot is the enumeration the checkpointed one replaced: each
// path starts a new run at the first step, the previous path's decisions
// up to its deepest true one scripted and that one flipped.
func replayFromRoot(m *machine, samples int) *equivResult {
	res := &equivResult{Failures: make(map[failure]int)}
	m.beginRun()
	for {
		if res.Paths >= m.pathBudget {
			res.Failures[failure{Kind: "path-budget", Detail: fmt.Sprintf("more than %d paths", m.pathBudget)}]++
			break
		}
		res.Paths++
		fails := m.runPath()
		if len(fails) == 0 {
			res.PathsProved++
		}
		for _, f := range fails {
			res.Failures[f]++
		}
		k := m.deepestTrue()
		if k < 0 {
			break
		}
		script := make([]bool, 0, k+1)
		for _, d := range m.taken[:k] {
			script = append(script, d.v)
		}
		m.beginRun()
		m.script = append(script, false)
	}
	res.Decisions = m.decisions
	res.Pruned = m.pruned
	// Replaying from the root executes exactly the steps the paths span.
	res.StepsReplayed, res.StepsExecuted = m.executed, m.executed
	if len(res.Failures) > 0 {
		res.Fallbacks = len(res.Failures)
		res.Samples = samples
		res.Counterexample = m.concreteSearch(samples)
	}
	res.Nodes = m.t.seq
	return res
}

// agreeWithReplay enumerates one compile with both enumerators, each on
// a fresh machine, and fails unless every result but the executed-step
// count is identical. It returns the checkpointed result, or nil when
// setup fails (then neither enumerator runs).
func agreeWithReplay(t *testing.T, u *lang.Unit, layout *ilpgen.Layout, prog *codegen.Concrete, pathBudget, decisionBudget int) *equivResult {
	t.Helper()
	enum := func(run func(*machine, int) *equivResult) *equivResult {
		m, fail := newMachine(u, layout, codegen.Render(prog), pathBudget, decisionBudget)
		if fail != nil {
			return nil
		}
		return run(m, 64)
	}
	got, want := enum(runEquivalence), enum(replayFromRoot)
	if got == nil || want == nil {
		if got != want {
			t.Fatal("setup failed for one enumerator only")
		}
		return nil
	}
	if got.StepsExecuted > got.StepsReplayed {
		t.Errorf("executed %d steps, more than the %d the paths span", got.StepsExecuted, got.StepsReplayed)
	}
	g, w := *got, *want
	g.StepsExecuted, w.StepsExecuted = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("checkpointed enumeration disagrees with replay from the root:\n got %+v\nwant %+v", g, w)
	}
	return got
}

// TestEnumerationMatchesReplayOnPrograms: the twelve shipped programs on
// three built-in targets. Pairs that do not fit a target are skipped.
func TestEnumerationMatchesReplayOnPrograms(t *testing.T) {
	progs := [][2]string{
		{"StandaloneCMS", modules.StandaloneCMS()},
		{"StandaloneBloom", modules.StandaloneBloom()},
		{"StandaloneKVS", modules.StandaloneKVS()},
		{"StandaloneHashTable", modules.StandaloneHashTable()},
		{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		{"StandaloneIDTable", modules.StandaloneIDTable()},
	}
	for _, a := range append(apps.All(), apps.FlowRadar(), apps.HashPipe()) {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	compiled := 0
	for _, target := range []pisa.Target{pisa.EvalTarget(pisa.Mb), pisa.RunningExampleTarget(), pisa.TofinoLike()} {
		for _, p := range progs {
			u, layout, prog, err := compile(p[1], target)
			if err != nil {
				t.Logf("%s on %s: %v", p[0], target.Name, err)
				continue
			}
			compiled++
			t.Run(p[0]+"/"+target.Name, func(t *testing.T) {
				res := agreeWithReplay(t, u, layout, prog, 1<<16, 1<<18)
				if res == nil || len(res.Failures) != 0 {
					t.Fatalf("shipped program does not prove: %+v", res)
				}
			})
		}
	}
	if compiled < 24 {
		t.Errorf("only %d of 36 program/target pairs compiled", compiled)
	}
}

// mutants are the miscompiles and layout tamperings of mutation_test.go,
// each applied to a fresh copy of the CMS compile.
var mutants = []struct {
	name   string
	mutate func(t *testing.T, layout *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout
}{
	{"wrong-value", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		addOne(t, prog)
		return l
	}},
	{"swapped-apply-stage", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		swapActionStages(prog)
		return l
	}},
	{"restaged-action", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		restage(t, prog, l.Target.Stages)
		return l
	}},
	{"dropped-guard", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		dropGuard(prog)
		return l
	}},
	{"narrowed-width", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		decls[*lang.RegisterDecl](prog)[0].Elem.Bits /= 2
		return l
	}},
	{"narrowed-fields", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		narrowFields(prog)
		return l
	}},
	{"dropped-apply-step", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		dropLastApplyStep(prog)
		return l
	}},
	{"missing-action", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		dropAction(t, prog)
		return l
	}},
	{"inflated-bits", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		c := cloneLayout(l)
		c.Registers[0].Bits[c.Registers[0].Stages[0]] += int64(c.Registers[0].Width)
		return c
	}},
	{"moved-placement", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		c := cloneLayout(l)
		for i := range c.Placements {
			if c.Placements[i].Stage > 0 {
				c.Placements[i].Stage = 0
				break
			}
		}
		return c
	}},
	{"tampered-symbolic", func(t *testing.T, l *ilpgen.Layout, prog *codegen.Concrete) *ilpgen.Layout {
		c := cloneLayout(l)
		c.Symbolics["cms_rows"] += 7
		return c
	}},
}

// TestEnumerationMatchesReplayOnMutants: the mutation suite's cases
// fail on the target side — wrong values, stats, obligations at a step
// the target then retries on later paths — and must fail identically
// under both enumerators.
func TestEnumerationMatchesReplayOnMutants(t *testing.T) {
	for _, mu := range mutants {
		t.Run(mu.name, func(t *testing.T) {
			u, layout, prog := mutationCompile(t)
			layout = mu.mutate(t, layout, prog)
			agreeWithReplay(t, u, layout, prog, 1<<16, 1<<18)
		})
	}
}

// TestEnumerationMatchesReplayOnBudgets: a decision budget that runs out
// mid-path stops the source on an obligation at every later new
// decision, with the target left where an earlier path put it; a path
// budget stops the enumeration itself.
func TestEnumerationMatchesReplayOnBudgets(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	for _, b := range [][2]int{{1 << 16, 5}, {1 << 16, 40}, {7, 1 << 18}} {
		res := agreeWithReplay(t, u, layout, prog, b[0], b[1])
		if res == nil || len(res.Failures) == 0 {
			t.Errorf("budgets %v: no obligation", b)
		}
	}
}

// abortProgram forks a division-by-zero abort between two branching
// steps: paths that abort leave later steps unexecuted on both sides.
const abortProgram = `
header pkt { bit<32> a; bit<32> b; bit<32> c; }
struct meta { bit<32> q; bit<32> r; }
action head() { if (pkt.c == 1) { meta.r = 1; } }
action div_it() { meta.q = pkt.a / pkt.b; meta.r = meta.r + 1; }
action tail() { if (pkt.c == 2) { meta.r = meta.r + 2; } }
control main { apply { head(); div_it(); tail(); } }
`

func TestEnumerationMatchesReplayOnAborts(t *testing.T) {
	u, layout, prog := compileFor(t, abortProgram, pisa.EvalTarget(pisa.Mb))
	res := agreeWithReplay(t, u, layout, prog, 1<<16, 1<<18)
	if res == nil || len(res.Failures) != 0 {
		t.Fatalf("abort program does not prove: %+v", res)
	}
	if res.Paths < 6 {
		t.Errorf("%d paths, want the abort forked under both branches", res.Paths)
	}
}

// prunedProgram meets one interval-decided condition per path on each
// side: probe's `meta.t + 1` is a symbolic value in [1, 256], never
// zero, so it is pruned rather than forked, between two steps that do
// fork.
const prunedProgram = `
header pkt { bit<8> a; bit<32> b; bit<32> c; }
struct meta { bit<32> t; bit<32> u; }
action head() { if (pkt.b == 1) { meta.u = 1; } }
action probe() { meta.t = pkt.a; if (meta.t + 1) { meta.u = meta.u + 2; } }
action tail() { if (pkt.c == 2) { meta.u = meta.u + 4; } }
control main { apply { head(); probe(); tail(); } }
`

// TestPrunedDecisionsRestored: pruned_decisions counts a pruned
// condition once per path that meets it, so a backtrack that keeps a
// step must also keep that step's share of the count — every shipped
// certificate reads 0, so only a program like this one checks it.
func TestPrunedDecisionsRestored(t *testing.T) {
	u, layout, prog := compileFor(t, prunedProgram, pisa.EvalTarget(pisa.Mb))
	cert := Validate(u, layout, prog, Options{Name: "pruned"})
	mustProve(t, cert)
	eq := cert.Equivalence
	if eq.Paths != 4 || eq.PrunedDecisions != 2*eq.Paths {
		t.Errorf("paths=%d pruned_decisions=%d, want 4 paths and one pruned condition a side per path", eq.Paths, eq.PrunedDecisions)
	}
	agreeWithReplay(t, u, layout, prog, 1<<16, 1<<18)
}

// TestEnumerationSharesPrefixes: on the benchmark's CMS the checkpointed
// enumeration executes a small fraction of the steps its paths span.
func TestEnumerationSharesPrefixes(t *testing.T) {
	u, layout, prog := mutationCompile(t)
	res := agreeWithReplay(t, u, layout, prog, 1<<16, 1<<18)
	if res == nil || 4*res.StepsExecuted > res.StepsReplayed {
		t.Errorf("executed %d of %d spanned steps, want under a quarter", res.StepsExecuted, res.StepsReplayed)
	}
}
