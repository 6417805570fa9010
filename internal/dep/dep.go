// Package dep builds the dependency graphs of the P4All compiler's
// first phase (§4.2, Figure 9). Nodes group unrolled action instances
// that access the same register array instance (and therefore must
// share a pipeline stage); precedence edges order instances with data
// or control dependencies into distinct, ordered stages; exclusion
// edges separate commutative writers into distinct but unordered
// stages.
package dep

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
)

// Instance is one unrolled occurrence of an invocation: the invocation
// plus an iteration for each enclosing elastic loop (outermost first).
type Instance struct {
	Inv   *lang.Invocation
	Iters []int // parallel to Inv.Loops; empty for inelastic invocations
}

// Iter returns the innermost iteration (the value of the action's
// index parameter), or the constant index for pinned calls, or 0.
func (in *Instance) Iter() int {
	if len(in.Iters) > 0 {
		return in.Iters[len(in.Iters)-1]
	}
	if in.Inv.HasConstIndex {
		return int(in.Inv.ConstIndex)
	}
	return 0
}

// Name renders a diagnostic name like "incr[2]".
func (in *Instance) Name() string {
	if len(in.Iters) == 0 {
		if in.Inv.HasConstIndex {
			return fmt.Sprintf("%s[%d]", in.Inv.Action.Name, in.Inv.ConstIndex)
		}
		return in.Inv.Action.Name
	}
	parts := make([]string, len(in.Iters))
	for i, it := range in.Iters {
		parts[i] = fmt.Sprintf("%d", it)
	}
	return fmt.Sprintf("%s[%s]", in.Inv.Action.Name, strings.Join(parts, ","))
}

// RegInstance identifies one physical register array instance.
type RegInstance struct {
	Name  string // register name
	Index int    // instance index within the elastic array
}

// IterClass identifies one loop iteration a node belongs to.
type IterClass struct {
	Sym  *lang.Symbolic
	Iter int
}

// Node is one dependency-graph node: the set of instances that must be
// placed in the same stage, with their summed ALU requirements.
type Node struct {
	ID        int
	Instances []*Instance
	Hf, Hl    int // stateful / stateless ALU demand on the target
	Hashes    int // hash computations (for the hash-unit extension)
	// Classes lists the loop iterations this node belongs to, one per
	// (symbolic, iteration) across all instances and loop levels;
	// empty for purely inelastic nodes.
	Classes []IterClass
}

func (n *Node) addClass(c IterClass) {
	if !slices.Contains(n.Classes, c) {
		n.Classes = append(n.Classes, c)
	}
}

// Name renders the node's instance names.
func (n *Node) Name() string {
	parts := make([]string, len(n.Instances))
	for i, in := range n.Instances {
		parts[i] = in.Name()
	}
	return strings.Join(parts, "+")
}

// Graph is the dependency graph over nodes.
type Graph struct {
	Nodes []*Node
	// Prec[i] lists nodes that must be placed strictly after node i.
	Prec [][]int
	// Excl[i] lists nodes that must not share a stage with node i
	// (symmetric).
	Excl [][]int
	// RegNodes maps each accessed register instance to the node that
	// must host it.
	RegNodes map[RegInstance]int
}

// Counts maps each symbolic to the iteration count used when unrolling.
type Counts map[*lang.Symbolic]int

// atom identifies a storage element for dependence purposes.
type atom struct {
	kind  byte // 'r' register instance, 'm' metadata element
	name  string
	index int // register/meta element index; -1 for scalar
}

// access is one atom touched by an instance.
type access struct {
	atom  atom
	write bool
	red   reduction // the commutative update a write belongs to, if any
	iter  bool      // atom.index is the instance's iteration
}

// reduction is the kind of commutative update a field write belongs
// to: "min", "max" or "+" for the self-reductions and the guarded
// min/max updates, "@" and the action's name for every write of an
// @commutative action, "" for a write that does not commute. Two writes
// of one atom commute only when their kinds are equal: a minimum and
// a sum of one field do not.
type reduction string

// Build constructs the dependency graph for the given unroll counts.
// Invocations whose innermost loop's symbolic is absent from counts
// default to one iteration. The target supplies the Hf/Hl cost
// functions.
func Build(u *lang.Unit, counts Counts, target *pisa.Target) *Graph {
	instances := Enumerate(u, counts)
	return buildFrom(u, instances, target)
}

// BuildFor constructs the graph G_v of §4.2 for a single symbolic v:
// only invocations iterating under a loop bounded by v are included,
// loops bounded by v unroll K times, and any other loops in the nest
// take the most conservative single iteration.
func BuildFor(u *lang.Unit, v *lang.Symbolic, k int, target *pisa.Target) *Graph {
	counts := Counts{}
	for _, sym := range u.Symbolics {
		if sym == v {
			counts[sym] = k
		} else {
			counts[sym] = 1
		}
	}
	var instances []*Instance
	for _, inv := range u.Invocations {
		if slices.ContainsFunc(inv.Loops, func(l *lang.LoopRef) bool { return l.Sym == v }) {
			instances = append(instances, expand(inv, counts)...)
		}
	}
	return buildFrom(u, instances, target)
}

// Enumerate unrolls every invocation under the given counts, in
// program order with iteration vectors in lexicographic order.
func Enumerate(u *lang.Unit, counts Counts) []*Instance {
	var out []*Instance
	for _, inv := range u.Invocations {
		out = append(out, expand(inv, counts)...)
	}
	return out
}

func expand(inv *lang.Invocation, counts Counts) []*Instance {
	if len(inv.Loops) == 0 {
		return []*Instance{{Inv: inv}}
	}
	dims := make([]int, len(inv.Loops))
	total := 1
	for i, l := range inv.Loops {
		c, ok := counts[l.Sym]
		if !ok {
			c = 1
		}
		if c < 0 {
			c = 0
		}
		dims[i] = c
		total *= c
	}
	out := make([]*Instance, 0, total)
	iters := make([]int, len(dims))
	for {
		out = append(out, &Instance{Inv: inv, Iters: append([]int(nil), iters...)})
		// Advance the iteration vector (innermost fastest would also
		// work; outermost-last matches loop nesting program order).
		d := len(iters) - 1
		for d >= 0 {
			iters[d]++
			if iters[d] < dims[d] {
				break
			}
			iters[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	if total == 0 {
		return nil
	}
	return out
}

// accessesOf resolves inv's footprint (sem.Footprint), guard reads
// included, into atoms and marks the field writes that commute. An
// access at the iteration takes its index per instance (at).
func accessesOf(u *lang.Unit, inv *lang.Invocation) []access {
	var all reduction // the kind of every field write of inv, if any
	if inv.Action.Commutative {
		all = reduction("@" + inv.Action.Name)
	} else {
		all = guardedReduction(inv)
	}
	reduced := make(map[*lang.Ref]reduction)
	if d := inv.Action.Decl; d != nil && d.Body != nil {
		reductions(d.Body, reduced)
	}
	var out []access
	for _, a := range sem.Footprint(u, inv) {
		ac := access{atom: atom{kind: 'r'}, write: a.Write, iter: a.Inst == sem.InstIter}
		if a.Write && a.Field != nil {
			ac.red = all
			if all == "" {
				ac.red = reduced[a.Ref]
			}
		}
		if a.Reg != nil {
			ac.atom.name = a.Reg.Name
		} else {
			ac.atom = atom{kind: 'm', name: a.Field.Qual(), index: -1}
		}
		if a.Inst == sem.InstConst {
			ac.atom.index = int(a.Const)
		}
		out = append(out, ac)
	}
	return out
}

// at returns the accesses of instance in, its iteration resolved.
func at(in *Instance, accs []access) []access {
	out := slices.Clone(accs)
	for i := range out {
		if out[i].iter {
			out[i].atom.index = in.Iter()
		}
	}
	return out
}

// reductions marks the assignments of a body that are commutative
// reductions with their kind: lhs = min(lhs, e), lhs = max(lhs, e),
// lhs = lhs + e, and the guarded min/max update if (A < X) { X = A; }.
func reductions(b *lang.Block, marked map[*lang.Ref]reduction) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			reductions(s, marked)
		case *lang.AssignStmt:
			if r := selfReduction(s.LHS, s.RHS); r != "" {
				marked[s.LHS] = r
			}
		case *lang.IfStmt:
			if as, ok := singleAssign(s.Then); ok && s.Else == nil {
				if r := guardReduction(s.Cond, as); r != "" {
					marked[as.LHS] = r
				}
			}
			reductions(s.Then, marked)
			if s.Else != nil {
				reductions(s.Else, marked)
			}
		}
	}
}

// guardedReduction returns the kind of inv when it is the guarded
// min/max update across the call boundary: its innermost guard compares
// A against X and its action's body is X = A, read at the invocation's
// instance. Otherwise it returns "".
func guardedReduction(inv *lang.Invocation) reduction {
	d := inv.Action.Decl
	if len(inv.Guards) == 0 || d == nil || d.Body == nil {
		return ""
	}
	as, ok := singleAssign(d.Body)
	if !ok {
		return ""
	}
	if d.IndexParam != "" {
		var idx lang.Expr = &lang.IntLit{Value: inv.ConstIndex}
		if l := inv.Loop(); l != nil {
			idx = &lang.Ref{Segs: []lang.Seg{{Name: l.Var}}}
		}
		sub := map[string]lang.Expr{d.IndexParam: idx}
		as = &lang.AssignStmt{LHS: lang.Subst(as.LHS, sub).(*lang.Ref), RHS: lang.Subst(as.RHS, sub)}
	}
	return guardReduction(inv.Guards[len(inv.Guards)-1], as)
}

// singleAssign returns the sole assignment of a block, if that is all
// the block contains.
func singleAssign(b *lang.Block) (*lang.AssignStmt, bool) {
	if b == nil || len(b.Stmts) != 1 {
		return nil, false
	}
	as, ok := b.Stmts[0].(*lang.AssignStmt)
	return as, ok
}

// guardReduction returns "min" or "max" when "if (cond) { as }" is a
// guarded minimum or maximum update — cond compares A against X and the
// body sets X = A — and "" otherwise.
func guardReduction(cond lang.Expr, as *lang.AssignStmt) reduction {
	bin, ok := cond.(*lang.Binary)
	if !ok {
		return ""
	}
	below := false // the update runs when A is below X
	switch bin.Op {
	case lang.LT, lang.LE:
		below = true
	case lang.GT, lang.GE:
	default:
		return ""
	}
	lhs, rhs := lang.PrintExpr(as.LHS), lang.PrintExpr(as.RHS)
	x, y := lang.PrintExpr(bin.X), lang.PrintExpr(bin.Y)
	switch {
	case x == rhs && y == lhs: // if (A op X) { X = A; }
	case y == rhs && x == lhs: // if (X op A) { X = A; }
		below = !below
	default:
		return ""
	}
	if below {
		return "min"
	}
	return "max"
}

// selfReduction returns the kind of "lhs = rhs" when it is a
// commutative self-update — lhs = min(lhs, e), lhs = max(lhs, e) or
// lhs = lhs + e — and "" otherwise.
func selfReduction(lhs *lang.Ref, rhs lang.Expr) reduction {
	var x, y lang.Expr
	var kind reduction
	switch rhs := rhs.(type) {
	case *lang.CallExpr:
		if rhs.Name != "min" && rhs.Name != "max" {
			return ""
		}
		x, y, kind = rhs.Args[0], rhs.Args[1], reduction(rhs.Name)
	case *lang.Binary:
		if rhs.Op != lang.PLUS {
			return ""
		}
		x, y, kind = rhs.X, rhs.Y, "+"
	default:
		return ""
	}
	if l := lang.PrintExpr(lhs); lang.PrintExpr(x) != l && lang.PrintExpr(y) != l {
		return ""
	}
	return kind
}

func buildFrom(u *lang.Unit, instances []*Instance, target *pisa.Target) *Graph {
	n := len(instances)
	// Union instances that access the same register array instance:
	// they must share a stage (same-stage node grouping).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	accs := make([][]access, n)
	regOwner := make(map[atom]int)
	byInv := make(map[*lang.Invocation][]access)
	for i, in := range instances {
		ia, ok := byInv[in.Inv]
		if !ok {
			ia = accessesOf(u, in.Inv)
			byInv[in.Inv] = ia
		}
		accs[i] = at(in, ia)
		for _, ac := range accs[i] {
			if ac.atom.kind != 'r' {
				continue
			}
			if prev, ok := regOwner[ac.atom]; ok {
				union(prev, i)
			} else {
				regOwner[ac.atom] = i
			}
		}
	}
	// Materialize nodes.
	g := &Graph{RegNodes: make(map[RegInstance]int)}
	nodeOf := make([]int, n)
	classNode := make(map[int]int)
	profiles := make(map[*lang.Invocation]pisa.ActionProfile)
	for i := range instances {
		root := find(i)
		id, ok := classNode[root]
		if !ok {
			id = len(g.Nodes)
			classNode[root] = id
			g.Nodes = append(g.Nodes, &Node{ID: id})
		}
		nodeOf[i] = id
		node := g.Nodes[id]
		node.Instances = append(node.Instances, instances[i])
		p, ok := profiles[instances[i].Inv]
		if !ok {
			p = sem.Profile(u, instances[i].Inv)
			profiles[instances[i].Inv] = p
		}
		node.Hf += target.Hf(p)
		node.Hl += target.Hl(p)
		node.Hashes += p.Hashes
		for li, l := range instances[i].Inv.Loops {
			node.addClass(IterClass{Sym: l.Sym, Iter: instances[i].Iters[li]})
		}
		for _, ac := range accs[i] {
			if ac.atom.kind == 'r' {
				g.RegNodes[RegInstance{Name: ac.atom.name, Index: ac.atom.index}] = id
			}
		}
	}
	g.Prec = make([][]int, len(g.Nodes))
	g.Excl = make([][]int, len(g.Nodes))

	type edgeKey struct{ a, b int }
	precSeen := make(map[edgeKey]bool)
	exclSeen := make(map[edgeKey]bool)
	addPrec := func(a, b int) {
		if a == b || precSeen[edgeKey{a, b}] {
			return
		}
		precSeen[edgeKey{a, b}] = true
		g.Prec[a] = append(g.Prec[a], b)
	}
	addExcl := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if exclSeen[edgeKey{a, b}] {
			return
		}
		exclSeen[edgeKey{a, b}] = true
		g.Excl[a] = append(g.Excl[a], b)
		g.Excl[b] = append(g.Excl[b], a)
	}

	// commutWrites[i] holds the atoms instance i writes commutatively,
	// with the kind of its reduction; a reducer's read of its own
	// reduction atom is part of the reduction, so conflicts between
	// reducers of one kind stay exclusions. (An instance that also
	// writes the atom another way meets the other instance's write in
	// the write-write arm below, which orders the pair.)
	commutWrites := make([]map[atom]reduction, n)
	for i := range instances {
		for _, ac := range accs[i] {
			if ac.write && ac.red != "" {
				if commutWrites[i] == nil {
					commutWrites[i] = make(map[atom]reduction)
				}
				commutWrites[i][ac.atom] = ac.red
			}
		}
	}
	// commute reports whether a conflict on a commutes: a write of
	// reduction kind r against the other instance's reduction of a.
	commute := func(r reduction, other map[atom]reduction, a atom) bool {
		return r != "" && other[a] == r
	}

	// Pairwise dependence: i precedes j in program order.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ni, nj := nodeOf[i], nodeOf[j]
			if ni == nj {
				continue
			}
			for _, ai := range accs[i] {
				for _, aj := range accs[j] {
					if ai.atom != aj.atom {
						continue
					}
					switch {
					case ai.write && aj.write:
						if ai.red != "" && ai.red == aj.red {
							addExcl(ni, nj)
						} else {
							addPrec(ni, nj)
						}
					case ai.write:
						// j reads. If j's read feeds its own
						// reduction of the same atom, of the kind
						// i's write is, the pair commutes.
						if commute(ai.red, commutWrites[j], ai.atom) {
							addExcl(ni, nj)
						} else {
							addPrec(ni, nj)
						}
					case aj.write:
						// i reads before j writes (WAR): i's stage
						// must strictly precede j's, unless both are
						// parts of one reduction of the same kind.
						if commute(aj.red, commutWrites[i], aj.atom) {
							addExcl(ni, nj)
						} else {
							addPrec(ni, nj)
						}
					}
				}
			}
		}
	}
	// An exclusion that also has a precedence edge is dominated by it.
	for a := range g.Excl {
		kept := g.Excl[a][:0]
		for _, b := range g.Excl[a] {
			if precSeen[edgeKey{a, b}] || precSeen[edgeKey{b, a}] {
				continue
			}
			kept = append(kept, b)
		}
		g.Excl[a] = kept
	}
	for i := range g.Prec {
		sort.Ints(g.Prec[i])
	}
	for i := range g.Excl {
		sort.Ints(g.Excl[i])
	}
	return g
}

// TotalALUs returns the summed stateful and stateless demand.
func (g *Graph) TotalALUs() (hf, hl int) {
	for _, n := range g.Nodes {
		hf += n.Hf
		hl += n.Hl
	}
	return hf, hl
}

// String renders the graph for diagnostics.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d: %s (Hf=%d Hl=%d)\n", n.ID, n.Name(), n.Hf, n.Hl)
	}
	for a, succ := range g.Prec {
		for _, bn := range succ {
			fmt.Fprintf(&b, "  %s -> %s\n", g.Nodes[a].Name(), g.Nodes[bn].Name())
		}
	}
	for a, ex := range g.Excl {
		for _, bn := range ex {
			if a < bn {
				fmt.Fprintf(&b, "  %s <-> %s\n", g.Nodes[a].Name(), g.Nodes[bn].Name())
			}
		}
	}
	return b.String()
}
