package dep

import (
	"math/rand"
	"testing"
)

// referenceLongestPath is the search as it stood before the
// reachability bound, with no step budget: every simple path is walked
// (only the all-nodes-remaining prune is kept). Tests compare against
// it; it is factorial and must stay on small graphs.
func referenceLongestPath(g *Graph) int {
	n := len(g.Nodes)
	if n == 0 {
		return 0
	}
	visited := make([]bool, n)
	best := 1
	var dfs func(at, length, unvisited int)
	dfs = func(at, length, unvisited int) {
		if length > best {
			best = length
		}
		if length+unvisited <= best {
			return
		}
		for _, adj := range [2][]int{g.Prec[at], g.Excl[at]} {
			for _, nb := range adj {
				if !visited[nb] {
					visited[nb] = true
					dfs(nb, length+1, unvisited-1)
					visited[nb] = false
				}
			}
		}
	}
	for start := 0; start < n; start++ {
		visited[start] = true
		dfs(start, 1, n-1)
		visited[start] = false
	}
	return best
}

// bruteLongestPath tries every ordering of the nodes and takes the
// longest prefix that is a valid simple path — no search logic shared
// with the DFS at all. n! orderings: n <= 8 only.
func bruteLongestPath(g *Graph) int {
	n := len(g.Nodes)
	step := make([][]bool, n)
	for a := range step {
		step[a] = make([]bool, n)
		for _, b := range g.Prec[a] {
			step[a][b] = true
		}
		for _, b := range g.Excl[a] {
			step[a][b] = true
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := 0
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			l := 1
			for l < n && step[perm[l-1]][perm[l]] {
				l++
			}
			if n > 0 && l > best {
				best = l
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	return best
}

// randomMixedGraph draws n nodes with forward precedence edges and
// symmetric exclusion edges, each pair independently; the densities
// vary per graph so sparse chains and near-cliques both appear.
func randomMixedGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{Prec: make([][]int, n), Excl: make([][]int, n)}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &Node{ID: i})
	}
	pPrec, pExcl := rng.Intn(5), rng.Intn(5)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch r := rng.Intn(10); {
			case r < pPrec:
				g.Prec[i] = append(g.Prec[i], j)
			case r < pPrec+pExcl:
				g.Excl[i] = append(g.Excl[i], j)
				g.Excl[j] = append(g.Excl[j], i)
			}
		}
	}
	return g
}

// chainsAndClique is the shape every shipped module unrolls to: K
// two-node chains head->tail whose tails form a K-clique of exclusion
// edges. Its longest simple path is K+1 (one head, then every tail).
func chainsAndClique(k int) *Graph {
	n := 2 * k
	g := &Graph{Prec: make([][]int, n), Excl: make([][]int, n)}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &Node{ID: i})
	}
	for i := 0; i < k; i++ {
		g.Prec[2*i] = []int{2*i + 1}
		for j := 0; j < k; j++ {
			if j != i {
				g.Excl[2*i+1] = append(g.Excl[2*i+1], 2*j+1)
			}
		}
	}
	return g
}

// TestLongestPathMatchesReference: the bounded search returns what the
// exhaustive one does on seeded random mixed graphs, never takes more
// steps than it has room for, and says the answer is exact.
func TestLongestPathMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2500; seed++ {
		rng := newRand(seed)
		g := randomMixedGraph(rng, 1+rng.Intn(11))
		want := referenceLongestPath(g)
		got, exact := g.LongestSimplePath()
		if got != want || !exact {
			t.Fatalf("seed %d (n=%d): LongestSimplePath = %d, exact %v; reference %d", seed, len(g.Nodes), got, exact, want)
		}
	}
}

// TestLongestPathMatchesPermutations checks both searches against the
// permutation brute force, which shares no logic with either.
func TestLongestPathMatchesPermutations(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := newRand(seed)
		g := randomMixedGraph(rng, rng.Intn(9))
		want := bruteLongestPath(g)
		if got, _ := g.LongestSimplePath(); got != want {
			t.Fatalf("seed %d (n=%d): LongestSimplePath = %d, permutations %d", seed, len(g.Nodes), got, want)
		}
		if ref := referenceLongestPath(g); ref != want {
			t.Fatalf("seed %d (n=%d): reference = %d, permutations %d", seed, len(g.Nodes), ref, want)
		}
	}
}

// TestLongestPathChainsAndCliqueSteps guards against the factorial
// coming back: on the K-chain + K-clique family the search must finish
// within 2·n² steps (it takes K(K+3)/2 + 1; unbounded it burns the whole
// dfsBudget from K = 8 on). A deterministic count, not a timing.
func TestLongestPathChainsAndCliqueSteps(t *testing.T) {
	for k := 2; k <= 24; k++ {
		g := chainsAndClique(k)
		n := len(g.Nodes)
		best, steps := g.exactLongestPath()
		if best != k+1 {
			t.Errorf("K=%d: longest path = %d, want %d", k, best, k+1)
		}
		if steps > 2*n*n {
			t.Errorf("K=%d: %d DFS steps, ceiling 2·n² = %d", k, steps, 2*n*n)
		}
		if got, exact := g.LongestSimplePath(); got != k+1 || !exact {
			t.Errorf("K=%d: LongestSimplePath = %d, exact %v; want %d, true", k, got, exact, k+1)
		}
	}
}

// TestLongestPathReportsEstimate: past exactNodeLimit the answer comes
// from the estimate and is flagged as such.
func TestLongestPathReportsEstimate(t *testing.T) {
	g := chainsAndClique(exactNodeLimit/2 + 1)
	if got, exact := g.LongestSimplePath(); exact || got != g.estimateLongestPath() {
		t.Errorf("n=%d: LongestSimplePath = %d, exact %v; want the estimate %d, false",
			len(g.Nodes), got, exact, g.estimateLongestPath())
	}
}

// TestLongestPathAllocsIndependentOfSteps: the search allocates its
// scratch once per call and nothing per visit, so a graph that takes 5×
// the steps costs the same number of allocations.
func TestLongestPathAllocsIndependentOfSteps(t *testing.T) {
	allocs := func(k int) (float64, int) {
		g := chainsAndClique(k)
		_, steps := g.exactLongestPath()
		return testing.AllocsPerRun(20, func() { g.exactLongestPath() }), steps
	}
	small, smallSteps := allocs(4)
	large, largeSteps := allocs(10)
	if largeSteps < 4*smallSteps {
		t.Fatalf("K=10 takes %d steps, K=4 %d: the graphs no longer differ enough to tell", largeSteps, smallSteps)
	}
	if small != large {
		t.Errorf("allocations per search: %v at K=4 (%d steps), %v at K=10 (%d steps); want equal", small, smallSteps, large, largeSteps)
	}
}
