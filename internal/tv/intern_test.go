package tv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/codegen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// The validator proves equivalence by pointer equality of interned
// nodes, so interning is part of the trusted base: two distinct values
// sharing a node would turn a miscompile into "proved". These tests
// hold the struct-keyed table to the string rendering it replaced,
// which survives here as the oracle.

// legacyKey renders a node's identity the way symtab.intern used to
// before looking it up: every distinguishing field, then the operand
// ids. It works on interned nodes and on not-yet-interned requests.
func legacyKey(n *node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%s|%d|%d", n.kind, n.op, n.name, n.val, n.width)
	for _, a := range n.args {
		if a != nil {
			fmt.Fprintf(&b, "|%d", a.id)
		}
	}
	return b.String()
}

// request asks the table for the value req describes, through the same
// two entry points every constructor uses.
func request(t *symtab, req *node) *node {
	if req.kind == kConst {
		return t.constant(req.val)
	}
	return t.intern(req.kind, req.op, req.width, req.name, req.args[0], req.args[1], req.args[2])
}

// tableNodes returns every node the table holds.
func tableNodes(t *symtab) []*node {
	out := make([]*node, 0, t.seq)
	for _, n := range t.consts {
		out = append(out, n)
	}
	for _, n := range t.nodes {
		out = append(out, n)
	}
	return out
}

// checkTable asserts legacyKey(a) == legacyKey(b) ⇔ a == b over every
// node of a finished run: ids are a permutation of 0..seq-1 (no node is
// held twice or lost), no two nodes render the same key (equal values
// were never interned apart), and asking again for any node's value
// returns that node without growing the table (a value is found by its
// structure, not by when it was built).
func checkTable(t *testing.T, tab *symtab) {
	t.Helper()
	nodes := tableNodes(tab)
	if len(nodes) != tab.seq {
		t.Fatalf("table holds %d nodes, interned %d", len(nodes), tab.seq)
	}
	seenID := make([]bool, tab.seq)
	byKey := make(map[string]*node, len(nodes))
	for _, n := range nodes {
		if n.id < 0 || int(n.id) >= tab.seq || seenID[n.id] {
			t.Fatalf("node id %d out of range or repeated", n.id)
		}
		seenID[n.id] = true
		k := legacyKey(n)
		if other, dup := byKey[k]; dup && other != n {
			t.Fatalf("nodes %d and %d are distinct but both render %q", other.id, n.id, k)
		}
		byKey[k] = n
	}
	for _, n := range nodes {
		if got := request(tab, n); got != n {
			t.Fatalf("asking for %q again returned node %d, not %d", legacyKey(n), got.id, n.id)
		}
	}
	if tab.seq != len(nodes) {
		t.Fatalf("re-asking for interned values grew the table %d -> %d", len(nodes), tab.seq)
	}
}

// TestInterningMatchesLegacyKeyOnPrograms validates the four suite
// apps, the standalone CMS and FlowRadar and checks the finished tables.
func TestInterningMatchesLegacyKeyOnPrograms(t *testing.T) {
	type prog struct {
		name, src string
		target    pisa.Target
	}
	progs := []prog{
		{"cms", modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb / 4)},
		{"FlowRadar", apps.FlowRadar().Source, pisa.EvalTarget(7 * pisa.Mb / 4)},
	}
	for _, app := range apps.All() {
		progs = append(progs, prog{app.Name, app.Source, pisa.EvalTarget(pisa.Mb)})
	}
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			u, layout, cprog := compileFor(t, p.src, p.target)
			m, fail := newMachine(u, layout, codegen.Render(cprog), 1<<16, 1<<18)
			if fail != nil {
				t.Fatalf("setup: %s: %s", fail.Kind, fail.Detail)
			}
			res := runEquivalence(m, 64)
			if len(res.Failures) != 0 {
				t.Fatalf("not proved: %v", res.Failures)
			}
			if res.Nodes != m.t.seq || res.Nodes == 0 {
				t.Errorf("reported %d nodes, table has %d", res.Nodes, m.t.seq)
			}
			checkTable(t, m.t)
		})
	}
}

// TestInterningMatchesLegacyKeyRandom drives the table with seeded
// random requests drawn from a domain small enough to repeat often and
// built to collide wherever a field could be dropped from the identity:
// the same name as a packet input, a builtin and an initial array, the
// same value or operands at different widths, the same operands under
// different operators and kinds, the same operand prefix at different
// arities. A shadow map keyed by the legacy rendering says which node
// each request must return.
func TestInterningMatchesLegacyKeyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newSymtab()
	kinds := []nodeKind{kConst, kIn, kMask, kUn, kBin, kCall, kArrial, kStore, kSelect}
	ops := []lang.Kind{0, lang.PLUS, lang.MINUS, lang.SLASH, lang.PCT, lang.LT, lang.EQ, lang.NOT}
	widths := []int{0, 1, 8, 16, 32}
	names := []string{"", "min", "max", "hash", "pkt.flow", "cms/0", "cms/1"}
	vals := []uint64{0, 1, 8, 16, 32, 255, 256, 1 << 32, ^uint64(0)}

	want := make(map[string]*node)  // legacy key -> the node that value got
	keyOf := make(map[*node]string) // node -> the legacy key it was created for
	pool := []*node{tab.constant(0)}
	want[legacyKey(pool[0])] = pool[0]
	keyOf[pool[0]] = legacyKey(pool[0])

	hits := 0
	for i := 0; i < 40000; i++ {
		req := node{kind: kinds[rng.Intn(len(kinds))]}
		if req.kind == kConst {
			req.val = vals[rng.Intn(len(vals))]
		} else {
			req.op = ops[rng.Intn(len(ops))]
			req.width = widths[rng.Intn(len(widths))]
			req.name = names[rng.Intn(len(names))]
			// interval() reads the operands these kinds always have.
			least := map[nodeKind]int{kMask: 1, kBin: 2, kCall: 2}[req.kind]
			for a, arity := 0, least+rng.Intn(4-least); a < arity; a++ {
				// Favor the oldest nodes so requests repeat.
				req.args[a] = pool[rng.Intn(1+rng.Intn(len(pool)))]
			}
		}
		k := legacyKey(&req)
		got := request(tab, &req)
		if legacyKey(got) != k {
			t.Fatalf("request %q returned a node rendering %q", k, legacyKey(got))
		}
		if prev, seen := want[k]; seen {
			hits++
			if got != prev {
				t.Fatalf("request %q returned node %d, first returned node %d", k, got.id, prev.id)
			}
			continue
		}
		if other, seen := keyOf[got]; seen {
			t.Fatalf("distinct values %q and %q share node %d", other, k, got.id)
		}
		want[k], keyOf[got] = got, k
		pool = append(pool, got)
	}
	if hits < 1000 || len(pool) < 1000 {
		t.Fatalf("generator degenerate: %d hits, %d distinct values", hits, len(pool))
	}
	checkTable(t, tab)
}

// TestWarmPathAllocatesNothing: a path costs allocations only the first
// time its values and storage slots are seen. On a machine that has
// enumerated every path, enumerating them again — the first path from
// the root, every later one a backtrack (rollback of both sides) and a
// resumed path, each compared — allocates nothing.
func TestWarmPathAllocatesNothing(t *testing.T) {
	u, layout, prog := compileFor(t, modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb/4))
	m, fail := newMachine(u, layout, codegen.Render(prog), 1<<16, 1<<30)
	if fail != nil {
		t.Fatalf("setup: %s: %s", fail.Kind, fail.Detail)
	}
	res := runEquivalence(m, 64)
	if len(res.Failures) != 0 || res.Paths < 2 {
		t.Fatalf("warm-up run: %d paths, failures %v", res.Paths, res.Failures)
	}
	nodes := m.t.seq
	allocs := testing.AllocsPerRun(20, func() {
		m.beginRun()
		paths := 0
		for {
			paths++
			if fails := m.runPath(); len(fails) != 0 {
				t.Fatalf("warm path failed: %v", fails)
			}
			k := m.deepestTrue()
			if k < 0 {
				break
			}
			m.backtrack(k)
		}
		if paths != res.Paths {
			t.Fatalf("warm run enumerated %d paths, want %d", paths, res.Paths)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm run allocates %v times, want 0", allocs)
	}
	if m.t.seq != nodes {
		t.Errorf("the warm run grew the table %d -> %d", nodes, m.t.seq)
	}
}
