package lang

import (
	"fmt"
)

// linearize walks the main control's apply block and produces the
// invocation sequence the dependency analysis and ILP generator
// consume. Constant-bound loops are unrolled here; symbolic loops
// become LoopRefs. Controls invoked via apply are inlined. Bare
// assignments inside apply blocks are wrapped into synthetic actions.
func (r *resolver) linearize() error {
	lw := &linWalker{r: r, inlining: make(map[string]bool)}
	if err := lw.control(r.unit.Main, nil); err != nil {
		return err
	}
	return nil
}

type linFrame struct {
	loops  []*LoopRef
	guards []Expr
	env    map[string]int64 // constant loop variables in scope
	// iterGuard is the loop variable a guard in scope reads, if any: a
	// call under it must run once per iteration of that loop.
	iterGuard string
}

func (f *linFrame) clone() *linFrame {
	nf := &linFrame{
		loops:     append([]*LoopRef(nil), f.loops...),
		guards:    append([]Expr(nil), f.guards...),
		env:       make(map[string]int64, len(f.env)),
		iterGuard: f.iterGuard,
	}
	for k, v := range f.env {
		nf.env[k] = v
	}
	return nf
}

type linWalker struct {
	r        *resolver
	inlining map[string]bool // controls currently being inlined (cycle check)
	synthN   int
}

func (lw *linWalker) unit() *Unit { return lw.r.unit }

func (lw *linWalker) control(c *Control, f *linFrame) error {
	if lw.inlining[c.Name] {
		return errf(c.Decl.Pos, "control %s applied recursively", c.Name)
	}
	lw.inlining[c.Name] = true
	defer delete(lw.inlining, c.Name)
	if f == nil {
		f = &linFrame{env: make(map[string]int64)}
	}
	return lw.block(c.Decl.Apply, f)
}

func (lw *linWalker) block(b *Block, f *linFrame) error {
	for _, s := range b.Stmts {
		if err := lw.stmt(s, f); err != nil {
			return err
		}
	}
	return nil
}

func (lw *linWalker) stmt(s Stmt, f *linFrame) error {
	switch s := s.(type) {
	case *Block:
		return lw.block(s, f)
	case *IfStmt:
		return lw.ifStmt(s, f)
	case *ForStmt:
		return lw.forStmt(s, f)
	case *CallStmt:
		return lw.call(s, f)
	case *ApplyStmt:
		return lw.apply(s, f)
	case *AssignStmt:
		return lw.syntheticAssign(s, f)
	default:
		return errf(s.GetPos(), "unsupported statement in apply block")
	}
}

func (lw *linWalker) ifStmt(s *IfStmt, f *linFrame) error {
	cond := substEnv(s.Cond, f.env)
	b := &binder{r: lw.r}
	if inner := innermostLoop(f); inner != nil {
		b.iter = inner.Var
	}
	if err := b.expr(cond); err != nil {
		return err
	}
	nf := f.clone()
	nf.guards = append(nf.guards, cond)
	if b.readIter {
		nf.iterGuard = b.iter
	}
	if err := lw.block(s.Then, nf); err != nil {
		return err
	}
	if s.Else != nil {
		ef := f.clone()
		ef.guards = append(ef.guards, &Unary{Pos: s.Pos, Op: NOT, X: cond})
		ef.iterGuard = nf.iterGuard
		return lw.block(s.Else, ef)
	}
	return nil
}

func (lw *linWalker) forStmt(s *ForStmt, f *linFrame) error {
	if _, shadow := f.env[s.Var]; shadow {
		return errf(s.Pos, "loop variable %s shadows an enclosing loop variable", s.Var)
	}
	for _, l := range f.loops {
		if l.Var == s.Var {
			return errf(s.Pos, "loop variable %s shadows an enclosing loop variable", s.Var)
		}
	}
	size, err := lw.r.sizeExpr(substEnv(s.Bound, f.env))
	if err != nil {
		return err
	}
	if !size.IsSymbolic() {
		// Constant loop: unroll now.
		for k := int64(0); k < size.Const; k++ {
			nf := f.clone()
			nf.env[s.Var] = k
			if err := lw.block(s.Body, nf); err != nil {
				return err
			}
		}
		return nil
	}
	loop := &LoopRef{ID: len(lw.unit().Loops), Sym: size.Sym, Var: s.Var, Decl: s}
	lw.unit().Loops = append(lw.unit().Loops, loop)
	nf := f.clone()
	nf.loops = append(nf.loops, loop)
	return lw.block(s.Body, nf)
}

func (lw *linWalker) call(s *CallStmt, f *linFrame) error {
	a := lw.unit().ActionByName(s.Name)
	if a == nil {
		return errf(s.Pos, "call of unknown action %s", s.Name)
	}
	if len(s.Args) != len(a.Decl.Params) {
		return errf(s.Pos, "action %s expects %d argument(s), got %d", s.Name, len(a.Decl.Params), len(s.Args))
	}
	inv := &Invocation{Action: a, Guards: append([]Expr(nil), f.guards...)}
	switch {
	case a.Indexed && s.Index == nil:
		return errf(s.Pos, "indexed action %s called without an index", s.Name)
	case !a.Indexed && s.Index != nil:
		return errf(s.Pos, "action %s is not indexed", s.Name)
	case a.Indexed:
		idx := substEnv(s.Index, f.env)
		if ref, ok := idx.(*Ref); ok && ref.IsSimpleIdent() {
			innermost := innermostLoop(f)
			if innermost != nil && ref.Base() == innermost.Var {
				inv.Loops = append([]*LoopRef(nil), f.loops...)
				break
			}
			for _, l := range f.loops {
				if l.Var == ref.Base() {
					return errf(s.Pos, "call index %s must be the innermost loop variable (%s)", ref.Base(), innermost.Var)
				}
			}
		}
		v, err := lw.r.evalConst(idx)
		if err != nil {
			return errf(s.Pos, "call index must be the innermost loop variable or a constant")
		}
		if v < 0 {
			return errf(s.Pos, "call index is negative (%d)", v)
		}
		inv.HasConstIndex = true
		inv.ConstIndex = v
	}
	if len(inv.Loops) == 0 && f.iterGuard != "" {
		// One invocation outside the loop's iterations would read the
		// loop variable where nothing binds it.
		return errf(s.Pos, "action %s is called under a condition on loop variable %s, so it must be indexed by %s", s.Name, f.iterGuard, f.iterGuard)
	}
	lw.append(inv)
	return nil
}

func (lw *linWalker) apply(s *ApplyStmt, f *linFrame) error {
	u := lw.unit()
	if c, ok := u.controlByName[s.Target]; ok {
		return lw.control(c, f.clone())
	}
	if t, ok := u.tableByName[s.Target]; ok {
		// The table match, then each invocable action (conservatively
		// all alternatives are placed; see DESIGN.md on the §4.4
		// table limitation).
		match := &Invocation{Action: t.Match, Guards: append([]Expr(nil), f.guards...)}
		if len(f.loops) > 0 {
			return errf(s.Pos, "table %s cannot be applied inside an elastic loop", t.Name)
		}
		lw.append(match)
		for _, a := range t.Actions {
			lw.append(&Invocation{Action: a, Guards: append([]Expr(nil), f.guards...)})
		}
		return nil
	}
	return errf(s.Pos, "apply of unknown control or table %s", s.Target)
}

// syntheticAssign wraps a bare apply-block assignment into a synthetic
// action so downstream stages see a uniform invocation stream.
func (lw *linWalker) syntheticAssign(s *AssignStmt, f *linFrame) error {
	lw.synthN++
	name := fmt.Sprintf("__stmt%d", lw.synthN)
	stmt := &AssignStmt{Pos: s.Pos, LHS: substEnv(s.LHS, f.env).(*Ref), RHS: substEnv(s.RHS, f.env)}
	decl := &ActionDecl{
		Pos:  s.Pos,
		Name: name,
		Body: &Block{Pos: s.Pos, Stmts: []Stmt{stmt}},
	}
	if inner := innermostLoop(f); inner != nil {
		decl.IndexParam = inner.Var
	}
	a := &Action{Name: name, Decl: decl, Indexed: decl.IndexParam != "", Synthetic: true}
	if err := lw.r.bindAction(a); err != nil {
		return err
	}
	lw.unit().Actions = append(lw.unit().Actions, a)
	lw.unit().actionByName[name] = a
	inv := &Invocation{Action: a, Guards: append([]Expr(nil), f.guards...)}
	if a.Indexed {
		inv.Loops = append([]*LoopRef(nil), f.loops...)
	}
	lw.append(inv)
	return nil
}

func (lw *linWalker) append(inv *Invocation) {
	inv.Order = len(lw.unit().Invocations)
	lw.unit().Invocations = append(lw.unit().Invocations, inv)
}

func innermostLoop(f *linFrame) *LoopRef {
	if len(f.loops) == 0 {
		return nil
	}
	return f.loops[len(f.loops)-1]
}

// substEnv returns a copy of e with constant loop variables replaced
// by their values. The copy's references are its own, so binding them
// binds this context only: one source condition or statement can sit in
// several contexts (a control applied twice, an unrolled loop).
func substEnv(e Expr, env map[string]int64) Expr {
	sub := make(map[string]Expr, len(env))
	for k, v := range env {
		sub[k] = &IntLit{Value: v}
	}
	return Subst(e, sub)
}

// Subst returns a copy of e with simple identifier references
// replaced per sub. Literals are shared; every reference is rebuilt,
// unbound.
func Subst(e Expr, sub map[string]Expr) Expr {
	switch e := e.(type) {
	case *IntLit, *BoolLit, *FloatLit:
		return e
	case *Ref:
		if e.IsSimpleIdent() {
			if repl, ok := sub[e.Base()]; ok {
				return repl
			}
			return &Ref{Pos: e.Pos, Segs: e.Segs}
		}
		out := &Ref{Pos: e.Pos, Segs: make([]Seg, len(e.Segs))}
		for i, s := range e.Segs {
			ns := Seg{Name: s.Name}
			for _, idx := range s.Indexes {
				ns.Indexes = append(ns.Indexes, Subst(idx, sub))
			}
			out.Segs[i] = ns
		}
		return out
	case *Unary:
		return &Unary{Pos: e.Pos, Op: e.Op, X: Subst(e.X, sub)}
	case *Binary:
		return &Binary{Pos: e.Pos, Op: e.Op, X: Subst(e.X, sub), Y: Subst(e.Y, sub)}
	case *CallExpr:
		out := &CallExpr{Pos: e.Pos, Name: e.Name}
		for _, a := range e.Args {
			out.Args = append(out.Args, Subst(a, sub))
		}
		return out
	default:
		return e
	}
}
