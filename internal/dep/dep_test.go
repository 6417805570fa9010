package dep

import (
	"testing"
	"testing/quick"

	"p4all/internal/lang"
	"p4all/internal/pisa"
)

// cmsSource mirrors the paper's Figure 6 running example.
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
`

func cmsUnit(t *testing.T) *lang.Unit {
	t.Helper()
	u, err := lang.ParseAndResolve(cmsSource)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func rows(u *lang.Unit) *lang.Symbolic { return u.SymbolicByName("rows") }

// TestFigure9Graph reproduces the paper's Figure 9: with the CMS loop
// unrolled K=3 times, the graph has 6 nodes (incr_i, min_i), precedence
// incr_i -> min_i, exclusion among the min_i, and a longest simple path
// of 4 (incr_1, min_1, min_2, min_3). With K=2 the longest path is 3.
func TestFigure9Graph(t *testing.T) {
	u := cmsUnit(t)
	tgt := pisa.RunningExampleTarget()

	g3 := BuildFor(u, rows(u), 3, &tgt)
	if len(g3.Nodes) != 6 {
		t.Fatalf("K=3 nodes = %d, want 6\n%s", len(g3.Nodes), g3)
	}
	if got, _ := g3.LongestSimplePath(); got != 4 {
		t.Errorf("K=3 longest simple path = %d, want 4\n%s", got, g3)
	}

	g2 := BuildFor(u, rows(u), 2, &tgt)
	if got, _ := g2.LongestSimplePath(); got != 3 {
		t.Errorf("K=2 longest simple path = %d, want 3\n%s", got, g2)
	}
}

func TestCMSEdgeStructure(t *testing.T) {
	u := cmsUnit(t)
	tgt := pisa.RunningExampleTarget()
	g := BuildFor(u, rows(u), 3, &tgt)

	byName := map[string]*Node{}
	for _, n := range g.Nodes {
		byName[n.Name()] = n
	}
	incr1, min1 := byName["incr[1]"], byName["set_min[1]"]
	min0, min2 := byName["set_min[0]"], byName["set_min[2]"]
	if incr1 == nil || min1 == nil || min0 == nil || min2 == nil {
		t.Fatalf("missing expected nodes:\n%s", g)
	}
	hasPrec := func(a, b *Node) bool {
		for _, x := range g.Prec[a.ID] {
			if x == b.ID {
				return true
			}
		}
		return false
	}
	hasExcl := func(a, b *Node) bool {
		for _, x := range g.Excl[a.ID] {
			if x == b.ID {
				return true
			}
		}
		return false
	}
	if !hasPrec(incr1, min1) {
		t.Errorf("missing precedence incr[1] -> set_min[1]\n%s", g)
	}
	if hasPrec(min0, min1) || hasPrec(min1, min0) {
		t.Errorf("min updates should not have precedence edges\n%s", g)
	}
	if !hasExcl(min0, min1) || !hasExcl(min1, min2) || !hasExcl(min0, min2) {
		t.Errorf("min updates should form an exclusion clique\n%s", g)
	}
	// incr instances access disjoint register rows: no mutual edges.
	incr0 := byName["incr[0]"]
	if hasPrec(incr0, incr1) || hasExcl(incr0, incr1) {
		t.Errorf("incr instances should be independent\n%s", g)
	}
}

func TestSameRegisterGrouping(t *testing.T) {
	src := `
struct meta { bit<32> a; bit<32> b; }
register<bit<32>>[64] r;
action first() { meta.a = r[0]; }
action second() { r[1] = meta.b; }
control main { apply { first(); second(); } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.RunningExampleTarget()
	g := Build(u, Counts{}, &tgt)
	// Both actions access register r (instance 0): one node.
	if len(g.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1 (same-register grouping)\n%s", len(g.Nodes), g)
	}
	if g.Nodes[0].Hf != 2 {
		t.Errorf("grouped Hf = %d, want 2", g.Nodes[0].Hf)
	}
}

func TestWAWNonCommutativePrecedence(t *testing.T) {
	src := `
struct meta { bit<32> x; }
action setA() { meta.x = 1; }
action setB() { meta.x = 2; }
control main { apply { setA(); setB(); } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.RunningExampleTarget()
	g := Build(u, Counts{}, &tgt)
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(g.Nodes))
	}
	if len(g.Prec[0]) != 1 || g.Prec[0][0] != 1 {
		t.Errorf("non-commutative WAW should be a program-order precedence edge\n%s", g)
	}
}

func TestReadAfterWritePrecedence(t *testing.T) {
	src := `
struct meta { bit<32> x; bit<32> y; }
action produce() { meta.x = 1; }
action consume() { meta.y = meta.x; }
control main { apply { produce(); consume(); } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.RunningExampleTarget()
	g := Build(u, Counts{}, &tgt)
	if len(g.Prec[0]) != 1 {
		t.Errorf("RAW should create a precedence edge\n%s", g)
	}
	if got, _ := g.LongestSimplePath(); got != 2 {
		t.Errorf("longest path = %d, want 2", got)
	}
}

func TestEnumerateCounts(t *testing.T) {
	u := cmsUnit(t)
	counts := Counts{rows(u): 4}
	instances := Enumerate(u, counts)
	if len(instances) != 8 {
		t.Fatalf("instances = %d, want 8 (4 incr + 4 set_min)", len(instances))
	}
	// Iteration order within an invocation must be ascending.
	for i := 0; i < 3; i++ {
		if instances[i].Iter() >= instances[i+1].Iter() {
			t.Errorf("iterations out of order: %s before %s", instances[i].Name(), instances[i+1].Name())
		}
	}
}

func TestEnumerateZeroCount(t *testing.T) {
	u := cmsUnit(t)
	instances := Enumerate(u, Counts{rows(u): 0})
	if len(instances) != 0 {
		t.Errorf("instances = %d, want 0 for zero count", len(instances))
	}
}

func TestNestedLoopEnumeration(t *testing.T) {
	src := `
symbolic int a;
symbolic int b;
struct meta { bit<32>[b] v; bit<32> acc; }
action bump()[int i] { meta.acc = meta.acc + meta.v[i]; }
control main { apply { for (x < a) { for (y < b) { bump()[y]; } } } }
`
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	counts := Counts{u.SymbolicByName("a"): 2, u.SymbolicByName("b"): 3}
	instances := Enumerate(u, counts)
	if len(instances) != 6 {
		t.Fatalf("instances = %d, want 2*3 = 6", len(instances))
	}
	// BuildFor(b) must hold a at its conservative single iteration.
	tgt := pisa.RunningExampleTarget()
	g := BuildFor(u, u.SymbolicByName("b"), 3, &tgt)
	if len(g.Nodes) != 3 {
		t.Errorf("BuildFor(b, 3) nodes = %d, want 3 (a held at 1)", len(g.Nodes))
	}
}

func TestLongestPathChain(t *testing.T) {
	// A pure chain a->b->c->d has path length 4.
	g := &Graph{
		Nodes: []*Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}},
		Prec:  [][]int{{1}, {2}, {3}, {}},
		Excl:  [][]int{{}, {}, {}, {}},
	}
	if got, _ := g.LongestSimplePath(); got != 4 {
		t.Errorf("chain path = %d, want 4", got)
	}
}

func TestLongestPathExclusionClique(t *testing.T) {
	// A 4-clique of exclusion edges can be traversed entirely.
	g := &Graph{Nodes: []*Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}}
	g.Prec = make([][]int, 4)
	g.Excl = make([][]int, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				g.Excl[i] = append(g.Excl[i], j)
			}
		}
	}
	if got, _ := g.LongestSimplePath(); got != 4 {
		t.Errorf("clique path = %d, want 4", got)
	}
}

func TestLongestPathEmptyAndSingle(t *testing.T) {
	g := &Graph{}
	if got, _ := g.LongestSimplePath(); got != 0 {
		t.Errorf("empty graph path = %d, want 0", got)
	}
	g = &Graph{Nodes: []*Node{{ID: 0}}, Prec: [][]int{{}}, Excl: [][]int{{}}}
	if got, _ := g.LongestSimplePath(); got != 1 {
		t.Errorf("single node path = %d, want 1", got)
	}
}

// TestQuickEstimateNeverBelowExactChain checks on random layered DAGs
// that the estimate used for big graphs matches the exact DFS (the
// estimate is exact for precedence-only DAGs plus disjoint cliques).
func TestQuickEstimatePathAgreesOnDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		n := 2 + rng.Intn(10)
		g := &Graph{Prec: make([][]int, n), Excl: make([][]int, n)}
		for i := 0; i < n; i++ {
			g.Nodes = append(g.Nodes, &Node{ID: i})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.Prec[i] = append(g.Prec[i], j)
				}
			}
		}
		exact, _ := g.exactLongestPath()
		return exact == g.estimateLongestPath()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExactAtLeastEstimate: on mixed random graphs the exact DFS
// must never be shorter than the precedence-only estimate (exclusion
// edges only add traversal options).
func TestQuickExactAtLeastEstimate(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		n := 2 + rng.Intn(9)
		g := &Graph{Prec: make([][]int, n), Excl: make([][]int, n)}
		for i := 0; i < n; i++ {
			g.Nodes = append(g.Nodes, &Node{ID: i})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				switch rng.Intn(5) {
				case 0:
					g.Prec[i] = append(g.Prec[i], j)
				case 1:
					g.Excl[i] = append(g.Excl[i], j)
					g.Excl[j] = append(g.Excl[j], i)
				}
			}
		}
		exact, _ := g.exactLongestPath()
		precOnly := &Graph{Nodes: g.Nodes, Prec: g.Prec, Excl: make([][]int, n)}
		precExact, _ := precOnly.exactLongestPath()
		return exact >= precExact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
