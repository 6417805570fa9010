package sem

import "p4all/internal/lang"

// Inst says how a reference selects among the instances of an elastic
// register or field.
type Inst uint8

const (
	InstScalar Inst = iota // no elastic dimension
	InstIter               // the step's iteration
	InstConst              // the constant Access.Const
)

// Access is one register or field reference of an invocation.
type Access struct {
	Ref   *lang.Ref
	Reg   *lang.Register  // the register referenced, or nil
	Field *lang.MetaField // the field referenced, or nil
	Inst  Inst
	Const uint64 // the instance when Inst is InstConst
	Write bool
	Guard bool // in the guard list, not the action body
}

// Footprint lists every register and field reference of invocation inv
// in the walker's evaluation order: its guard list, then its action
// body (a table's keys, for the table's match pseudo-action), both arms
// of every if included. References and their instances resolve as the
// walker resolves them: the binding the resolver gave each (Bound,
// lang.Ref.Inst).
func Footprint(u *lang.Unit, inv *lang.Invocation) []Access {
	f := footprinter{u: u, guard: true}
	for _, g := range inv.Guards {
		f.expr(g)
	}
	f.guard = false
	if d := inv.Action.Decl; d != nil && d.Body != nil {
		f.stmts(d.Body)
	} else if t := matchOf(u, inv.Action); t != nil {
		for _, k := range t.Decl.Keys {
			f.expr(k)
		}
	}
	return f.out
}

// matchOf returns the table whose match pseudo-action a is, or nil.
func matchOf(u *lang.Unit, a *lang.Action) *lang.TableInfo {
	for _, t := range u.Tables {
		if t.Match == a {
			return t
		}
	}
	return nil
}

type footprinter struct {
	u     *lang.Unit
	guard bool
	out   []Access
}

func (f *footprinter) stmts(b *lang.Block) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			f.stmts(s)
		case *lang.AssignStmt:
			f.expr(s.RHS)
			f.ref(s.LHS, true)
		case *lang.IfStmt:
			f.expr(s.Cond)
			f.stmts(s.Then)
			if s.Else != nil {
				f.stmts(s.Else)
			}
		}
	}
}

func (f *footprinter) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.Unary:
		f.expr(e.X)
	case *lang.Binary:
		f.expr(e.X)
		f.expr(e.Y)
	case *lang.CallExpr:
		for _, a := range e.Args {
			f.expr(a)
		}
	case *lang.Ref:
		f.ref(e, false)
	}
}

// ref records a register or field reference after the references its
// index expressions read.
func (f *footprinter) ref(ref *lang.Ref, write bool) {
	for _, seg := range ref.Segs {
		for _, ix := range seg.Indexes {
			f.expr(ix)
		}
	}
	reg, mf := Bound(f.u, ref)
	if reg == nil && mf == nil {
		return
	}
	a := Access{Ref: ref, Reg: reg, Field: mf, Write: write, Guard: f.guard}
	switch {
	case reg != nil && reg.Decl.Count == nil, mf != nil && !mf.Elastic():
		// InstScalar: there is no instance to select.
	case ref.Inst == lang.IterInst:
		a.Inst = InstIter
	default:
		a.Inst, a.Const = InstConst, uint64(ref.Inst)
	}
	f.out = append(f.out, a)
}
