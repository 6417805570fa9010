package dep

// Longest simple path computation for the unrolling criterion of §4.2:
// a simple path in the dependency graph is a sequence of distinct
// nodes where each step follows a precedence edge forward or an
// exclusion edge in either direction. Every node on such a path needs
// its own pipeline stage, so a path longer than S cannot fit.
//
// The search is a DFS over simple paths, bounded at every step by the
// nodes the current path can still reach: a path of `length` nodes
// standing at `at` can only be extended through unvisited nodes
// reachable from `at`, so once length + reachable <= best the subtree
// holds nothing longer. Without that bound the shape every shipped
// module has — K two-node chains whose tails form a K-clique of
// exclusion edges — costs K! clique orders, all of length K+1; with it
// the same graphs take K(K+3)/2 + 1 steps.

// exactNodeLimit caps the graph size for the exact DFS, and dfsBudget
// its steps; past either LongestSimplePath answers from the
// component-condensation estimate and says so. The estimate breaks
// condensation cycles and is therefore not a proven upper bound on the
// path; the compiler stays sound regardless (the ILP re-checks exact
// placement), it only affects how far loops unroll.
const (
	exactNodeLimit = 48
	dfsBudget      = 200000
)

// LongestSimplePath returns the number of nodes on the longest simple
// path of g (0 for an empty graph). exact is false when the answer came
// from the estimate instead of a completed search.
func (g *Graph) LongestSimplePath() (length int, exact bool) {
	if len(g.Nodes) > exactNodeLimit {
		return g.estimateLongestPath(), false
	}
	best, steps := g.exactLongestPath()
	if steps <= dfsBudget {
		return best, true
	}
	if est := g.estimateLongestPath(); est > best {
		best = est
	}
	return best, false
}

// exactLongestPath runs the DFS and returns the longest path found and
// the steps taken; steps > dfsBudget means the search was cut short.
func (g *Graph) exactLongestPath() (best, steps int) {
	n := len(g.Nodes)
	if n == 0 {
		return 0, 0
	}
	visited := make([]bool, n)
	best = 1
	// The DFS runs on every compile (unroll bound derivation), so it
	// must not allocate per visit: the two edge lists are walked in
	// place, and the reachability prune reuses one epoch-stamped seen
	// array and one stack.
	seen := make([]int, n)
	stack := make([]int, 0, n)
	epoch := 0
	// canBeat reports whether more than best-length unvisited nodes are
	// reachable from at (forward along Prec, either way along Excl,
	// through unvisited nodes only) — every extension of the current
	// path lies inside that set. It stops counting as soon as the
	// answer is yes.
	canBeat := func(at, length int) bool {
		epoch++
		need := best - length
		stack = append(stack[:0], at)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, adj := range [2][]int{g.Prec[x], g.Excl[x]} {
				for _, nb := range adj {
					if visited[nb] || seen[nb] == epoch {
						continue
					}
					if need--; need < 0 {
						return true
					}
					seen[nb] = epoch
					stack = append(stack, nb)
				}
			}
		}
		return false
	}
	var dfs func(at, length int)
	visit := func(nb, length int) {
		if visited[nb] {
			return
		}
		visited[nb] = true
		dfs(nb, length+1)
		visited[nb] = false
	}
	dfs = func(at, length int) {
		steps++
		if length > best {
			best = length
		}
		if best == n || steps > dfsBudget {
			return
		}
		// Prune: even visiting every node still reachable from here
		// cannot beat best.
		if !canBeat(at, length) {
			return
		}
		for _, nb := range g.Prec[at] {
			visit(nb, length)
			if best == n || steps > dfsBudget {
				return
			}
		}
		for _, nb := range g.Excl[at] {
			visit(nb, length)
			if best == n || steps > dfsBudget {
				return
			}
		}
	}
	for start := 0; start < n; start++ {
		visited[start] = true
		dfs(start, 1)
		visited[start] = false
		if best == n || steps > dfsBudget {
			break
		}
	}
	return best, steps
}

// estimateLongestPath condenses exclusion-connected components (whose
// members can be chained consecutively on a path) and takes the longest
// weighted path over the precedence DAG between components.
func (g *Graph) estimateLongestPath() int {
	n := len(g.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var compSize []int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		id := len(compSize)
		size := 0
		stack := []int{i}
		comp[i] = id
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, y := range g.Excl[x] {
				if comp[y] < 0 {
					comp[y] = id
					stack = append(stack, y)
				}
			}
		}
		compSize = append(compSize, size)
	}
	// Component DAG over precedence edges. Precedence edges always
	// point forward in program order, so the node-level graph is
	// acyclic; component cycles could only arise from exclusion
	// merging, which we break by ignoring back edges (so the result can
	// undershoot the true longest path on such graphs).
	nc := len(compSize)
	adj := make([][]int, nc)
	for a, succ := range g.Prec {
		for _, b := range succ {
			if comp[a] != comp[b] {
				adj[comp[a]] = append(adj[comp[a]], comp[b])
			}
		}
	}
	memo := make([]int, nc)
	state := make([]byte, nc) // 0 unvisited, 1 in-progress, 2 done
	var longest func(c int) int
	longest = func(c int) int {
		switch state[c] {
		case 2:
			return memo[c]
		case 1:
			return 0 // cycle guard
		}
		state[c] = 1
		best := 0
		for _, d := range adj[c] {
			if v := longest(d); v > best {
				best = v
			}
		}
		memo[c] = compSize[c] + best
		state[c] = 2
		return memo[c]
	}
	best := 0
	for c := 0; c < nc; c++ {
		if v := longest(c); v > best {
			best = v
		}
	}
	return best
}
