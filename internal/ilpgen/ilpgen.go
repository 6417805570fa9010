// Package ilpgen translates an unrolled P4All program into the integer
// linear program of the paper's Figure 10 and extracts concrete layouts
// from solutions.
//
// Mapping to the paper's constraint numbers:
//
//	#4  same-stage        — implicit: instances sharing a register are
//	                        grouped into one dependency node with a
//	                        single set of placement variables
//	#5  exclusion         — x[n1][s] + x[n2][s] <= 1 per stage
//	#6  precedence        — x[n2][s] <= sum_{s'<s} x[n1][s'] per stage
//	#7  conditional       — placed(n) tied to the iteration-exists
//	                        variables d[v][i] of every loop level
//	#8  memory per stage  — sum_r mem[r][s] <= M
//	#9  co-location       — mem[r][s] <= bigM * x[node(r)][s]
//	#10 equal row sizes   — one shared cells variable per size symbolic
//	#11 stateful ALUs     — sum Hf(n) x[n][s] <= F
//	#12 stateless ALUs    — sum Hl(n) x[n][s] <= L
//	#13 PHV budget        — sum bits_v d[v][i] + elastic-field bits <= P - P_fixed
//	#14 metadata coupling — placed(n) <= d[v][i] (half of the #7 tie)
//	#15 at-most-once      — sum_s x[n][s] <= 1 (relaxed under register
//	                        spreading, the §4.4 extension)
//	#16 iteration order   — d[v][i+1] <= d[v][i]
//	#17 inelastic placed  — sum_s x[n][s] == 1 for loop-free nodes
//
// plus the program's assume declarations and the utility objective,
// both linearized over the symbolic-value expressions (a lone symbolic
// is a sum of d variables or a cells variable; a product count*cells is
// the total allocated cell count of the matching register, which is
// linear in the memory variables).
package ilpgen

import (
	"fmt"
	"math"
	"sort"

	"p4all/internal/dep"
	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// ILP is the generated program plus the mappings needed to read a
// solution back.
type ILP struct {
	Unit   *lang.Unit
	Target *pisa.Target
	Bounds *unroll.Result
	Graph  *dep.Graph
	Model  *ilp.Model

	x      [][]ilp.Var                   // per node, per stage
	spread []bool                        // node may occupy several stages
	pvar   []ilp.Var                     // exists indicator for spread nodes (else unused)
	d      map[*lang.Symbolic][]ilp.Var  // iteration-exists per loop symbolic
	cells  map[*lang.Symbolic]ilp.Var    // shared cell-count per size symbolic
	free   map[*lang.Symbolic]ilp.Var    // symbolics with no structural role
	mem    map[dep.RegInstance][]ilp.Var // memory bits per register instance per stage
	insts  map[string][]dep.RegInstance  // register name -> its instances
	regOf  map[dep.RegInstance]*lang.Register

	// util is the linearized utility expression: the objective of a
	// single-unit compile, or this tenant's fairness term in a joint
	// compile.
	util ilp.Expr
	// utilSrc is the expression util linearizes; nil for the default
	// utility, the sum of the symbolic values.
	utilSrc lang.Expr
	// shared, when non-nil, collects this unit's per-stage resource
	// usage into the joint accumulator instead of emitting per-unit
	// budget rows (set by GenerateJoint for two or more tenants).
	shared *sharedRows
}

// sharedRows accumulates per-stage resource expressions across the
// tenants of a joint compile. The joint generator emits one budget row
// per stage from each accumulator after every tenant has generated;
// the per-tenant rows they replace would be implied by the joint ones
// (all terms are nonnegative), so they are skipped entirely.
type sharedRows struct {
	mem, hf, hl, hash []ilp.Expr
	phv               ilp.Expr
	fixedPHV          int // summed Unit.FixedPHVBits across tenants
}

func newSharedRows(stages int) *sharedRows {
	sh := &sharedRows{
		mem:  make([]ilp.Expr, stages),
		hf:   make([]ilp.Expr, stages),
		hl:   make([]ilp.Expr, stages),
		hash: make([]ilp.Expr, stages),
		phv:  ilp.NewExpr(),
	}
	for s := 0; s < stages; s++ {
		sh.mem[s] = ilp.NewExpr()
		sh.hf[s] = ilp.NewExpr()
		sh.hl[s] = ilp.NewExpr()
		sh.hash[s] = ilp.NewExpr()
	}
	return sh
}

// Generate builds the ILP for the program against the target, using
// the unroll bounds.
func Generate(u *lang.Unit, target *pisa.Target, bounds *unroll.Result) (*ILP, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	p, err := generateInto(u, target, bounds, ilp.NewModel(u.Main.Name), nil)
	if err != nil {
		return nil, err
	}
	p.Model.SetObjective(p.util, ilp.Maximize)
	return p, nil
}

// generateInto builds the unit's constraints into the given model —
// its own in a single-unit compile, the shared joint model in a
// multi-tenant one (where the model carries the tenant's name prefix,
// and shared, for two or more tenants, collects the per-stage resource
// terms).
func generateInto(u *lang.Unit, target *pisa.Target, bounds *unroll.Result, model *ilp.Model, shared *sharedRows) (*ILP, error) {
	counts := dep.Counts{}
	for sym, k := range bounds.LoopBound {
		counts[sym] = k
	}
	g := dep.Build(u, counts, target)
	p := &ILP{
		Unit:   u,
		Target: target,
		Bounds: bounds,
		Graph:  g,
		Model:  model,
		shared: shared,
		d:      make(map[*lang.Symbolic][]ilp.Var),
		cells:  make(map[*lang.Symbolic]ilp.Var),
		free:   make(map[*lang.Symbolic]ilp.Var),
		mem:    make(map[dep.RegInstance][]ilp.Var),
		insts:  make(map[string][]dep.RegInstance),
		regOf:  make(map[dep.RegInstance]*lang.Register),
	}
	if err := p.classifySymbolics(); err != nil {
		return nil, err
	}
	if err := p.checkNodes(); err != nil {
		return nil, err
	}
	p.placementVars()
	p.tightenStageWindows()
	p.iterationVars()
	p.edgeConstraints()
	p.conditionalConstraints()
	if err := p.memoryConstraints(); err != nil {
		return nil, err
	}
	p.aluConstraints()
	if err := p.phvConstraint(); err != nil {
		return nil, err
	}
	if err := p.assumeConstraints(); err != nil {
		return nil, err
	}
	if err := p.objective(); err != nil {
		return nil, err
	}
	// Materialize a value expression for every symbolic now: lazy
	// creation during extraction would add variables the solved model
	// never saw (e.g. the cells variable of a register whose loop
	// bound came out zero).
	for _, sym := range p.Unit.Symbolics {
		_ = p.symValueExpr(sym)
	}
	return p, nil
}

// roleOf classifies a symbolic: loop-governing, size-governing, or free.
type role int

const (
	roleLoop role = iota
	roleSize
	roleFree
)

func (p *ILP) roleOf(sym *lang.Symbolic) role {
	for _, l := range p.Unit.Loops {
		if l.Sym == sym {
			return roleLoop
		}
	}
	for _, r := range p.Unit.Registers {
		if r.Cells.Sym == sym {
			return roleSize
		}
	}
	for _, f := range p.Unit.ElasticFields() {
		if f.Count.Sym == sym {
			// Elastic metadata sized by a non-loop symbolic behaves
			// like a size extent.
			return roleSize
		}
	}
	return roleFree
}

func (p *ILP) classifySymbolics() error {
	for _, sym := range p.Unit.Symbolics {
		r := p.roleOf(sym)
		if r != roleLoop {
			continue
		}
		// A loop symbolic must not simultaneously size register cells:
		// its value is an iteration count, not a cell count.
		for _, reg := range p.Unit.Registers {
			if reg.Cells.Sym == sym {
				return fmt.Errorf("ilpgen: symbolic %s bounds a loop and sizes register %s cells; use two symbolics", sym.Name, reg.Name)
			}
		}
	}
	// Register instance counts must be loop symbolics or constants.
	for _, reg := range p.Unit.Registers {
		if reg.Count.IsSymbolic() && p.roleOf(reg.Count.Sym) != roleLoop {
			return fmt.Errorf("ilpgen: register %s instance count %s is not a loop symbolic", reg.Name, reg.Count.Sym.Name)
		}
	}
	return nil
}

// checkNodes rejects register sharing across iterations of one loop
// (such a register cannot live in multiple stages, so the loop is
// effectively inelastic; see DESIGN.md).
func (p *ILP) checkNodes() error {
	for _, n := range p.Graph.Nodes {
		seen := map[*lang.Symbolic]int{}
		for _, c := range n.Classes {
			if prev, ok := seen[c.Sym]; ok && prev != c.Iter {
				return fmt.Errorf("ilpgen: node %s spans iterations %d and %d of %s (a register is shared across loop iterations); index the register by the loop variable",
					n.Name(), prev, c.Iter, c.Sym.Name)
			}
			seen[c.Sym] = c.Iter
		}
	}
	return nil
}

// nodeSpreads reports whether the node may occupy several stages: the
// target allows it and the node hosts a register.
func (p *ILP) nodeSpreads(n *dep.Node) bool {
	if !p.Target.AllowRegisterSpread {
		return false
	}
	for _, id := range p.Graph.RegNodes {
		if id == n.ID {
			return true
		}
	}
	return false
}

// placedExpr returns the "node exists in the pipeline" expression.
func (p *ILP) placedExpr(n int) ilp.Expr {
	if p.spread[n] {
		return ilp.Term(p.pvar[n], 1)
	}
	return ilp.Sum(p.x[n]...)
}

func (p *ILP) placementVars() {
	S := p.Target.Stages
	p.x = make([][]ilp.Var, len(p.Graph.Nodes))
	p.spread = make([]bool, len(p.Graph.Nodes))
	p.pvar = make([]ilp.Var, len(p.Graph.Nodes))
	for _, n := range p.Graph.Nodes {
		vars := make([]ilp.Var, S)
		for s := 0; s < S; s++ {
			vars[s] = p.Model.AddBinary(fmt.Sprintf("x[%s][%d]", n.Name(), s))
		}
		p.x[n.ID] = vars
		p.spread[n.ID] = p.nodeSpreads(n)
		inelastic := len(n.Classes) == 0
		if p.spread[n.ID] {
			pv := p.Model.AddBinary(fmt.Sprintf("p[%s]", n.Name()))
			p.pvar[n.ID] = pv
			for s := 0; s < S; s++ {
				e := ilp.Term(vars[s], 1)
				e.Add(pv, -1)
				p.Model.AddConstr(fmt.Sprintf("spread-cap[%s][%d]", n.Name(), s), e, ilp.LE, 0)
			}
			e := ilp.Term(pv, 1)
			e.AddExpr(ilp.Sum(vars...), -1)
			p.Model.AddConstr(fmt.Sprintf("spread-exists[%s]", n.Name()), e, ilp.LE, 0)
			if inelastic {
				p.Model.AddConstr(fmt.Sprintf("place[%s]", n.Name()), ilp.Term(pv, 1), ilp.EQ, 1) // #17
			}
		} else {
			op := ilp.LE // #15
			if inelastic {
				op = ilp.EQ // #17
			}
			p.Model.AddConstr(fmt.Sprintf("place[%s]", n.Name()), ilp.Sum(vars...), op, 1)
		}
	}
}

func (p *ILP) iterationVars() {
	// Iterate loop symbolics in name order: variable indices must be
	// reproducible across compiles of the same program so that warm
	// starts (ilp.Options.Start) from a previous solve line up.
	syms := make([]*lang.Symbolic, 0, len(p.Bounds.LoopBound))
	for sym := range p.Bounds.LoopBound {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	for _, sym := range syms {
		bound := p.Bounds.LoopBound[sym]
		vars := make([]ilp.Var, bound)
		for i := 0; i < bound; i++ {
			vars[i] = p.Model.AddBinary(fmt.Sprintf("d[%s][%d]", sym.Name, i))
			// Iteration-exists variables drive the whole structure:
			// branch on them before placement binaries.
			p.Model.SetBranchPriority(vars[i], 2)
		}
		p.d[sym] = vars
		for i := 1; i < bound; i++ { // #16
			e := ilp.Term(vars[i], 1)
			e.Add(vars[i-1], -1)
			p.Model.AddConstr(fmt.Sprintf("order[%s][%d]", sym.Name, i), e, ilp.LE, 0)
		}
	}
}

func (p *ILP) edgeConstraints() {
	S := p.Target.Stages
	for a, succ := range p.Graph.Prec {
		for _, b := range succ {
			// #6: b at stage s requires a strictly earlier.
			for s := 0; s < S; s++ {
				e := ilp.Term(p.x[b][s], 1)
				for sp := 0; sp < s; sp++ {
					e.Add(p.x[a][sp], -1)
				}
				p.Model.AddConstr(fmt.Sprintf("prec[%d->%d][%d]", a, b, s), e, ilp.LE, 0)
			}
			if p.spread[a] || p.spread[b] {
				// Under spreading, also forbid any copy of a at or
				// after any copy of b: cum_b(s) <= S*(1 - x[a][s]).
				for s := 0; s < S; s++ {
					e := ilp.NewExpr()
					for sp := 0; sp <= s; sp++ {
						e.Add(p.x[b][sp], 1)
					}
					e.Add(p.x[a][s], float64(S))
					p.Model.AddConstr(fmt.Sprintf("prec-spread[%d->%d][%d]", a, b, s), e, ilp.LE, float64(S))
				}
			}
		}
	}
	// #5: exclusion. Commutative folds produce exclusion cliques, so a
	// whole clique collapses to one sum<=1 row per stage; only
	// non-clique components fall back to pairwise rows.
	cliques, pairs := p.exclusionGroups()
	for ci, members := range cliques {
		for s := 0; s < S; s++ {
			e := ilp.NewExpr()
			for _, n := range members {
				e.Add(p.x[n][s], 1)
			}
			p.Model.AddConstr(fmt.Sprintf("excl-clique[%d][%d]", ci, s), e, ilp.LE, 1)
		}
	}
	for _, pr := range pairs {
		for s := 0; s < S; s++ {
			p.Model.AddConstr(fmt.Sprintf("excl[%d-%d][%d]", pr[0], pr[1], s),
				ilp.Sum(p.x[pr[0]][s], p.x[pr[1]][s]), ilp.LE, 1)
		}
	}
}

// exclusionGroups partitions the exclusion edges into clique
// components (returned as member lists) and leftover pairwise edges.
func (p *ILP) exclusionGroups() (cliques [][]int, pairs [][2]int) {
	n := len(p.Graph.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	adj := make([]map[int]bool, n)
	for a, ex := range p.Graph.Excl {
		if len(ex) == 0 {
			continue
		}
		adj[a] = make(map[int]bool, len(ex))
		for _, b := range ex {
			adj[a][b] = true
		}
	}
	var members [][]int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 || len(p.Graph.Excl[i]) == 0 {
			continue
		}
		id := len(members)
		var list []int
		stack := []int{i}
		comp[i] = id
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			list = append(list, x)
			for _, y := range p.Graph.Excl[x] {
				if comp[y] < 0 {
					comp[y] = id
					stack = append(stack, y)
				}
			}
		}
		members = append(members, list)
	}
	for _, list := range members {
		isClique := true
		for i := 0; i < len(list) && isClique; i++ {
			for j := i + 1; j < len(list); j++ {
				if !adj[list[i]][list[j]] {
					isClique = false
					break
				}
			}
		}
		if isClique && len(list) > 2 {
			cliques = append(cliques, list)
			continue
		}
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if adj[list[i]][list[j]] {
					pairs = append(pairs, [2]int{list[i], list[j]})
				}
			}
		}
	}
	return cliques, pairs
}

// tightenStageWindows fixes x[n][s] = 0 for stages a node can never
// occupy: before its longest incoming precedence chain or after its
// longest outgoing one. This shrinks the effective search space and
// strengthens the LP relaxation.
func (p *ILP) tightenStageWindows() {
	n := len(p.Graph.Nodes)
	S := p.Target.Stages
	// Longest chain into each node over precedence edges (node-level
	// precedence is a DAG: edges follow program order).
	indeg := make([]int, n)
	radj := make([][]int, n)
	for a, succ := range p.Graph.Prec {
		for _, b := range succ {
			indeg[b]++
			radj[b] = append(radj[b], a)
		}
	}
	earliest := make([]int, n)
	latest := make([]int, n)
	for i := range latest {
		latest[i] = S - 1
	}
	// Topological order by repeated relaxation (graphs are small).
	order := make([]int, 0, n)
	deg := append([]int(nil), indeg...)
	queue := []int{}
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		order = append(order, x)
		for _, y := range p.Graph.Prec[x] {
			if earliest[x]+1 > earliest[y] {
				earliest[y] = earliest[x] + 1
			}
			deg[y]--
			if deg[y] == 0 {
				queue = append(queue, y)
			}
		}
	}
	// Latest-stage tightening is sound through a successor y whose
	// placement is implied by x's: inelastic y (#17) or elastic y
	// whose iteration classes are a subset of x's (#7 then forces y to
	// exist whenever x does — e.g. incr_i implies take_min_i).
	implied := func(x, y int) bool {
		yc := p.Graph.Nodes[y].Classes
		if len(yc) == 0 {
			return true
		}
		xc := p.Graph.Nodes[x].Classes
		for _, c := range yc {
			found := false
			for _, cx := range xc {
				if cx == c {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		for _, y := range p.Graph.Prec[x] {
			if !implied(x, y) {
				continue
			}
			if latest[y]-1 < latest[x] {
				latest[x] = latest[y] - 1
			}
		}
	}
	for id := 0; id < n; id++ {
		for s := 0; s < S; s++ {
			if s < earliest[id] || s > latest[id] {
				p.Model.SetBounds(p.x[id][s], 0, 0)
			}
		}
	}
}

func (p *ILP) conditionalConstraints() {
	for _, n := range p.Graph.Nodes {
		if len(n.Classes) == 0 {
			continue
		}
		placed := p.placedExpr(n.ID)
		// #7/#14: placed <= d for each class; placed >= sum d - (k-1).
		lower := ilp.NewExpr()
		lower.AddExpr(placed, -1)
		k := 0
		for _, c := range n.Classes {
			dv, ok := p.dVar(c)
			if !ok {
				continue
			}
			k++
			e := placedClone(placed)
			e.Add(dv, -1)
			p.Model.AddConstr(fmt.Sprintf("cond-ub[%s][%s=%d]", n.Name(), c.Sym.Name, c.Iter), e, ilp.LE, 0)
			lower.Add(dv, 1)
		}
		if k > 0 {
			p.Model.AddConstr(fmt.Sprintf("cond-lb[%s]", n.Name()), lower, ilp.LE, float64(k-1))
		}
	}
}

func (p *ILP) dVar(c dep.IterClass) (ilp.Var, bool) {
	vars, ok := p.d[c.Sym]
	if !ok || c.Iter >= len(vars) {
		return 0, false
	}
	return vars[c.Iter], true
}

func placedClone(e ilp.Expr) ilp.Expr {
	out := ilp.NewExpr()
	out.AddExpr(e, 1)
	return out
}

// cellsVarFor returns (creating on demand) the shared integer variable
// holding the cell count for a size symbolic.
func (p *ILP) cellsVarFor(sym *lang.Symbolic) ilp.Var {
	if v, ok := p.cells[sym]; ok {
		return v
	}
	lo := int64(1)
	if b, ok := p.Bounds.Assume[sym]; ok && b.Lo > 1 {
		lo = b.Lo
	}
	hi := unroll.SizeBound(p.Unit, sym, p.Target)
	if hi < lo {
		hi = lo
	}
	// Cell counts are continuous in the ILP and floored at extraction:
	// restricting them to integers adds huge-range branching for at
	// most one cell of precision (Gurobi-backed prototypes rely on the
	// same observation).
	v := p.Model.AddVar("cells["+sym.Name+"]", float64(lo), float64(hi), ilp.Continuous)
	p.cells[sym] = v
	return v
}

// freeVarFor returns a plain integer variable for a symbolic with no
// structural role (it still participates in assumes and utility).
func (p *ILP) freeVarFor(sym *lang.Symbolic) ilp.Var {
	if v, ok := p.free[sym]; ok {
		return v
	}
	lo, hi := float64(0), math.Inf(1)
	if b, ok := p.Bounds.Assume[sym]; ok {
		lo = float64(b.Lo)
		if b.Hi != unroll.NoUpper {
			hi = float64(b.Hi)
		}
	}
	if math.IsInf(hi, 1) {
		// Keep the model bounded; free symbolics with no upper bound
		// would make any positive-utility objective unbounded.
		hi = 1 << 20
	}
	v := p.Model.AddInt("sym["+sym.Name+"]", lo, hi)
	p.free[sym] = v
	return v
}

func (p *ILP) memoryConstraints() error {
	S := p.Target.Stages
	M := float64(p.Target.MemoryBits)
	// Enumerate register instances.
	for _, reg := range p.Unit.Registers {
		count := int(reg.Count.Const)
		if reg.Count.IsSymbolic() {
			count = p.Bounds.LoopBound[reg.Count.Sym]
		}
		for idx := 0; idx < count; idx++ {
			ri := dep.RegInstance{Name: reg.Name, Index: idx}
			p.insts[reg.Name] = append(p.insts[reg.Name], ri)
			p.regOf[ri] = reg
		}
	}
	for _, regDecl := range p.Unit.Registers {
		name := regDecl.Name
		for _, ri := range p.insts[name] {
			reg := p.regOf[ri]
			node, accessed := p.Graph.RegNodes[ri]
			if !accessed {
				continue // never touched: no memory, no stage
			}
			var cellsHi float64
			var cellsExpr ilp.Expr
			if reg.Cells.IsSymbolic() {
				cv := p.cellsVarFor(reg.Cells.Sym)
				_, hi := p.Model.VarBounds(cv)
				cellsHi = hi
				cellsExpr = ilp.Term(cv, float64(reg.Width))
			} else {
				cellsHi = float64(reg.Cells.Const)
				cellsExpr = ilp.Const(float64(reg.Cells.Const) * float64(reg.Width))
			}
			bigM := math.Min(M, cellsHi*float64(reg.Width))
			if p.Target.AllowRegisterSpread {
				bigM = math.Min(M*float64(S), cellsHi*float64(reg.Width))
			}
			vars := make([]ilp.Var, S)
			total := ilp.NewExpr()
			for s := 0; s < S; s++ {
				mv := p.Model.AddVar(fmt.Sprintf("mem[%s/%d][%d]", name, ri.Index, s), 0, math.Min(M, bigM), ilp.Continuous)
				vars[s] = mv
				total.Add(mv, 1)
				// #9: memory only where the accessing node sits.
				e := ilp.Term(mv, 1)
				e.Add(p.x[node][s], -bigM)
				p.Model.AddConstr(fmt.Sprintf("coloc[%s/%d][%d]", name, ri.Index, s), e, ilp.LE, 0)
				if !p.spread[node] {
					// A single-stage register carries its entire
					// width*cells in the one stage it occupies:
					// mem >= width*cells - bigM*(1 - x). Beyond
					// correctness, this cut stops the LP relaxation
					// from smearing a register's memory across
					// stages fractionally.
					lbs := ilp.Term(mv, 1)
					lbs.AddExpr(cellsExpr, -1)
					lbs.Add(p.x[node][s], -bigM)
					p.Model.AddConstr(fmt.Sprintf("coloc-full[%s/%d][%d]", name, ri.Index, s), lbs, ilp.GE, -bigM)
				}
			}
			p.mem[ri] = vars
			// Total memory equals width*cells when the node exists.
			ub := placedClone(total)
			ub.AddExpr(cellsExpr, -1)
			p.Model.AddConstr(fmt.Sprintf("memtotal-ub[%s/%d]", name, ri.Index), ub, ilp.LE, 0)
			lb := placedClone(total)
			lb.AddExpr(cellsExpr, -1)
			placed := p.placedExpr(node)
			lb.AddExpr(placed, -bigM)
			// total - width*cells - bigM*placed >= -bigM
			p.Model.AddConstr(fmt.Sprintf("memtotal-lb[%s/%d]", name, ri.Index), lb, ilp.GE, -bigM)
		}
	}
	// #8: per-stage budget. Walk register instances in declaration
	// order, not map order, so the generated model is identical across
	// compiles (constraint order steers simplex pivots; a reproducible
	// model keeps re-solves and warm starts reproducible too).
	orderedInsts := make([]dep.RegInstance, 0, len(p.mem))
	for _, regDecl := range p.Unit.Registers {
		for _, ri := range p.insts[regDecl.Name] {
			if _, ok := p.mem[ri]; ok {
				orderedInsts = append(orderedInsts, ri)
			}
		}
	}
	for s := 0; s < S; s++ {
		e := ilp.NewExpr()
		for _, ri := range orderedInsts {
			e.Add(p.mem[ri][s], 1)
		}
		if e.Len() == 0 {
			continue
		}
		if p.shared != nil {
			p.shared.mem[s].AddExpr(e, 1)
		} else {
			p.Model.AddConstr(fmt.Sprintf("mem-stage[%d]", s), e, ilp.LE, M)
		}
	}
	// Node-level aggregate: all register instances hosted by one node
	// share that node's stage, so their combined memory is bounded by
	// M times the node's placement there. Without this cut the LP
	// splits a two-register node (e.g. a hash table's key and value
	// arrays) across stages fractionally, doubling its apparent
	// capacity.
	nodeMems := make(map[int][][]ilp.Var)
	for _, ri := range orderedInsts {
		if node, ok := p.Graph.RegNodes[ri]; ok {
			nodeMems[node] = append(nodeMems[node], p.mem[ri])
		}
	}
	for node := 0; node < len(p.Graph.Nodes); node++ {
		lists := nodeMems[node]
		if len(lists) < 2 {
			continue // single register: implied by coloc + mem-stage
		}
		for s := 0; s < S; s++ {
			e := ilp.NewExpr()
			for _, vars := range lists {
				e.Add(vars[s], 1)
			}
			e.Add(p.x[node][s], -M)
			p.Model.AddConstr(fmt.Sprintf("node-mem[%d][%d]", node, s), e, ilp.LE, 0)
		}
	}
	return nil
}

func (p *ILP) aluConstraints() {
	S := p.Target.Stages
	for s := 0; s < S; s++ {
		hf := ilp.NewExpr()
		hl := ilp.NewExpr()
		hash := ilp.NewExpr()
		for _, n := range p.Graph.Nodes {
			if n.Hf != 0 {
				hf.Add(p.x[n.ID][s], float64(n.Hf))
			}
			if n.Hl != 0 {
				hl.Add(p.x[n.ID][s], float64(n.Hl))
			}
			if n.Hashes != 0 {
				hash.Add(p.x[n.ID][s], float64(n.Hashes))
			}
		}
		if p.shared != nil {
			p.shared.hf[s].AddExpr(hf, 1)
			p.shared.hl[s].AddExpr(hl, 1)
			p.shared.hash[s].AddExpr(hash, 1)
			continue
		}
		if hf.Len() > 0 {
			p.Model.AddConstr(fmt.Sprintf("alu-f[%d]", s), hf, ilp.LE, float64(p.Target.StatefulALUs)) // #11
		}
		if hl.Len() > 0 {
			p.Model.AddConstr(fmt.Sprintf("alu-l[%d]", s), hl, ilp.LE, float64(p.Target.StatelessALUs)) // #12
		}
		if p.Target.HashUnits > 0 && hash.Len() > 0 {
			p.Model.AddConstr(fmt.Sprintf("hash[%d]", s), hash, ilp.LE, float64(p.Target.HashUnits))
		}
	}
}

func (p *ILP) phvConstraint() error {
	if p.shared != nil {
		// Fixed bits are checked once for the whole mix by GenerateJoint.
		p.shared.fixedPHV += p.Unit.FixedPHVBits()
	} else if p.Target.ElasticPHVBits() < p.Unit.FixedPHVBits() {
		return fmt.Errorf("ilpgen: fixed headers and metadata need %d PHV bits, exceeding the %d available",
			p.Unit.FixedPHVBits(), p.Target.ElasticPHVBits())
	}
	e := ilp.NewExpr()
	for _, f := range p.Unit.ElasticFields() {
		sym := f.Count.Sym
		switch p.roleOf(sym) {
		case roleLoop:
			for _, dv := range p.d[sym] {
				e.Add(dv, float64(f.Width)) // #13/#14 via d
			}
		case roleSize:
			e.Add(p.cellsVarFor(sym), float64(f.Width))
		default:
			e.Add(p.freeVarFor(sym), float64(f.Width))
		}
	}
	if p.shared != nil {
		// The joint PHV row (every tenant's elastic terms against the
		// budget left after every tenant's fixed bits) is emitted once
		// by GenerateJoint.
		p.shared.phv.AddExpr(e, 1)
		return nil
	}
	if e.Len() > 0 {
		p.Model.AddConstr("phv", e, ilp.LE, float64(p.Target.ElasticPHVBits()-p.Unit.FixedPHVBits()))
	}
	return nil
}

// symValueExpr returns the linear expression whose value equals the
// symbolic's concrete value in any solution.
func (p *ILP) symValueExpr(sym *lang.Symbolic) ilp.Expr {
	switch p.roleOf(sym) {
	case roleLoop:
		return ilp.Sum(p.d[sym]...)
	case roleSize:
		return ilp.Term(p.cellsVarFor(sym), 1)
	default:
		return ilp.Term(p.freeVarFor(sym), 1)
	}
}

// productExpr linearizes sym1*sym2 as the total allocated cell count of
// a register whose instance count and cell count are governed by the
// pair: sum over instances of (allocated bits / width).
func (p *ILP) productExpr(a, b *lang.Symbolic) (ilp.Expr, error) {
	for _, reg := range p.Unit.Registers {
		if !reg.Count.IsSymbolic() || !reg.Cells.IsSymbolic() {
			continue
		}
		cnt, cls := reg.Count.Sym, reg.Cells.Sym
		if (cnt == a && cls == b) || (cnt == b && cls == a) {
			e := ilp.NewExpr()
			for _, ri := range p.insts[reg.Name] {
				for _, mv := range p.mem[ri] {
					e.Add(mv, 1/float64(reg.Width))
				}
			}
			return e, nil
		}
	}
	return ilp.Expr{}, fmt.Errorf("ilpgen: product %s*%s does not match any register's count*cells; only such products are linearizable", a.Name, b.Name)
}

// linearize translates an assume/optimize expression into a linear
// expression over the ILP variables.
func (p *ILP) linearize(e lang.Expr) (ilp.Expr, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return ilp.Const(float64(e.Value)), nil
	case *lang.FloatLit:
		return ilp.Const(e.Value), nil
	case *lang.Ref:
		if e.IsSimpleIdent() {
			if sym := p.Unit.SymbolicByName(e.Base()); sym != nil {
				return p.symValueExpr(sym), nil
			}
			if v, ok := p.Unit.Consts[e.Base()]; ok {
				return ilp.Const(float64(v)), nil
			}
		}
		return ilp.Expr{}, fmt.Errorf("ilpgen: %s is not a symbolic or constant", lang.PrintExpr(e))
	case *lang.Unary:
		if e.Op != lang.MINUS {
			return ilp.Expr{}, fmt.Errorf("ilpgen: operator %s not supported in linear expressions", e.Op)
		}
		x, err := p.linearize(e.X)
		if err != nil {
			return ilp.Expr{}, err
		}
		out := ilp.NewExpr()
		out.AddExpr(x, -1)
		return out, nil
	case *lang.Binary:
		switch e.Op {
		case lang.PLUS, lang.MINUS:
			x, err := p.linearize(e.X)
			if err != nil {
				return ilp.Expr{}, err
			}
			y, err := p.linearize(e.Y)
			if err != nil {
				return ilp.Expr{}, err
			}
			out := ilp.NewExpr()
			out.AddExpr(x, 1)
			if e.Op == lang.PLUS {
				out.AddExpr(y, 1)
			} else {
				out.AddExpr(y, -1)
			}
			return out, nil
		case lang.STAR:
			// const * expr, expr * const, or sym * sym (count*cells).
			if c, ok := p.constValue(e.X); ok {
				y, err := p.linearize(e.Y)
				if err != nil {
					return ilp.Expr{}, err
				}
				out := ilp.NewExpr()
				out.AddExpr(y, c)
				return out, nil
			}
			if c, ok := p.constValue(e.Y); ok {
				x, err := p.linearize(e.X)
				if err != nil {
					return ilp.Expr{}, err
				}
				out := ilp.NewExpr()
				out.AddExpr(x, c)
				return out, nil
			}
			sa := p.symOf(e.X)
			sb := p.symOf(e.Y)
			if sa != nil && sb != nil {
				return p.productExpr(sa, sb)
			}
			return ilp.Expr{}, fmt.Errorf("ilpgen: nonlinear product %s", lang.PrintExpr(e))
		case lang.SLASH:
			if c, ok := p.constValue(e.Y); ok && c != 0 {
				x, err := p.linearize(e.X)
				if err != nil {
					return ilp.Expr{}, err
				}
				out := ilp.NewExpr()
				out.AddExpr(x, 1/c)
				return out, nil
			}
			return ilp.Expr{}, fmt.Errorf("ilpgen: division %s is not linear", lang.PrintExpr(e))
		default:
			return ilp.Expr{}, fmt.Errorf("ilpgen: operator %s not allowed in linear expressions", e.Op)
		}
	default:
		return ilp.Expr{}, fmt.Errorf("ilpgen: unsupported expression %s", lang.PrintExpr(e))
	}
}

// delivered evaluates the utility expression over a layout's extracted
// symbolic values: the utility the shipped layout delivers. util read
// off a solution can be larger, because extraction floors the LP's
// continuous cell counts.
func (p *ILP) delivered(syms map[string]int64) float64 {
	if p.utilSrc == nil {
		sum := 0.0
		for _, sym := range p.Unit.Symbolics {
			sum += float64(syms[sym.Name])
		}
		return sum
	}
	return p.evalAt(p.utilSrc, syms)
}

// evalAt evaluates an expression linearize accepted at the given
// symbolic values.
func (p *ILP) evalAt(e lang.Expr, syms map[string]int64) float64 {
	if sym := p.symOf(e); sym != nil {
		return float64(syms[sym.Name])
	}
	if c, ok := p.constValue(e); ok {
		return c
	}
	switch e := e.(type) {
	case *lang.Unary:
		return -p.evalAt(e.X, syms)
	case *lang.Binary:
		x, y := p.evalAt(e.X, syms), p.evalAt(e.Y, syms)
		switch e.Op {
		case lang.PLUS:
			return x + y
		case lang.MINUS:
			return x - y
		case lang.STAR:
			return x * y
		case lang.SLASH:
			return x / y
		}
	}
	return math.NaN() // linearize rejects every other form
}

func (p *ILP) constValue(e lang.Expr) (float64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return float64(e.Value), true
	case *lang.FloatLit:
		return e.Value, true
	case *lang.Ref:
		if e.IsSimpleIdent() {
			if v, ok := p.Unit.Consts[e.Base()]; ok {
				return float64(v), true
			}
		}
	case *lang.Unary:
		if e.Op == lang.MINUS {
			v, ok := p.constValue(e.X)
			return -v, ok
		}
	}
	return 0, false
}

func (p *ILP) symOf(e lang.Expr) *lang.Symbolic {
	ref, ok := e.(*lang.Ref)
	if !ok || !ref.IsSimpleIdent() {
		return nil
	}
	return p.Unit.SymbolicByName(ref.Base())
}

// assumeConstraints adds every assume conjunct as a linear constraint.
func (p *ILP) assumeConstraints() error {
	n := 0
	var add func(e lang.Expr) error
	add = func(e lang.Expr) error {
		bin, ok := e.(*lang.Binary)
		if !ok {
			return fmt.Errorf("ilpgen: assume must be a conjunction of comparisons, got %s", lang.PrintExpr(e))
		}
		if bin.Op == lang.AND {
			if err := add(bin.X); err != nil {
				return err
			}
			return add(bin.Y)
		}
		lhs, err := p.linearize(bin.X)
		if err != nil {
			return err
		}
		rhs, err := p.linearize(bin.Y)
		if err != nil {
			return err
		}
		diff := ilp.NewExpr()
		diff.AddExpr(lhs, 1)
		diff.AddExpr(rhs, -1)
		n++
		name := fmt.Sprintf("assume[%d]", n)
		switch bin.Op {
		case lang.LE:
			p.Model.AddConstr(name, diff, ilp.LE, 0)
		case lang.LT:
			p.Model.AddConstr(name, diff, ilp.LE, -1)
		case lang.GE:
			p.Model.AddConstr(name, diff, ilp.GE, 0)
		case lang.GT:
			p.Model.AddConstr(name, diff, ilp.GE, 1)
		case lang.EQ:
			p.Model.AddConstr(name, diff, ilp.EQ, 0)
		default:
			return fmt.Errorf("ilpgen: assume operator %s not supported", bin.Op)
		}
		return nil
	}
	for _, a := range p.Unit.Assumes {
		if err := add(a.Cond); err != nil {
			return err
		}
	}
	return nil
}

// objective linearizes the utility function (maximized) into p.util.
// Without an optimize declaration, the default utility is the sum of all
// symbolic values. Generate installs it as the model objective; a joint
// model composes its fairness objective from the tenants' terms.
func (p *ILP) objective() error {
	var util ilp.Expr
	if p.Unit.Optimize != nil {
		var err error
		util, err = p.linearize(p.Unit.Optimize.Util)
		if err != nil {
			return err
		}
		p.utilSrc = p.Unit.Optimize.Util
	} else {
		util = ilp.NewExpr()
		for _, sym := range p.Unit.Symbolics {
			util.AddExpr(p.symValueExpr(sym), 1)
		}
	}
	p.util = util
	return nil
}
