// Package sem is the one evaluator of P4All action bodies. The
// reference interpreter (internal/sim, over uint64 values), every VM
// step no superinstruction covers (sim's opStep, over the VM's frame)
// and both sides of the translation validator (internal/tv, over
// symbolic nodes: the elastic source and the emitted text, parsed back)
// run its walker, so the certificate proves the emitted program against
// the semantics the interpreter executes, and the interpreter is the
// oracle the VM's superinstructions are held to.
//
// The walker fixes everything the two share: the schedule of action
// instances, guard order, statement and expression order, short-circuit
// booleans, the width each value wraps at, what each block charges to
// the stage's ALUs (the cost model of cost.go, which also yields the
// profile the compiler budgets), and how register and field references
// resolve: each reads the register or field and the instance the
// resolver bound it to (lang.Ref), so no instance index is evaluated per
// packet or per path. A Domain supplies the leaves: constants, the
// charge, branch decisions, arithmetic, builtins, and register and
// field storage.
package sem

import (
	"fmt"

	"p4all/internal/lang"
	"p4all/internal/pisa"
)

// Step is one executing entry of a compiled program's schedule: a
// placed action instance with a body, run under the guards and loop
// nest of the first invocation of its action.
type Step struct {
	Inv   *lang.Invocation
	Iter  int
	Stage int
	Pos   int   // index of the step's placement in the schedule
	plan  *Plan // built by Plan on first use
}

// Name resolves a simple name in step s: a name the resolver bound to
// the iteration (lang.Ref.Iter) is s.Iter, a symbolic value its solved
// value in syms, a named constant its value.
func (s *Step) Name(u *lang.Unit, syms map[string]int64, ref *lang.Ref) (uint64, bool) {
	if ref.Iter {
		return uint64(s.Iter), true
	}
	name := ref.Base()
	if sym := u.SymbolicByName(name); sym != nil {
		return uint64(syms[sym.Name]), true
	}
	if v, ok := u.Consts[name]; ok {
		return uint64(v), true
	}
	return 0, false
}

// Field is one resolved header or metadata field access: the declared
// field (Header says whether its struct is a header) and, for an
// elastic field, the instance (Idx is 0 for a scalar field).
type Field struct {
	*lang.MetaField
	Idx uint64
}

// Key is the field's storage and output key: "struct.field", or
// "struct.field@idx" for an elastic instance.
func (f Field) Key() string {
	if f.Elastic() {
		return InstKey(f.Qual(), f.Idx)
	}
	return f.Qual()
}

// Domain supplies the walker's leaves over values of type V. The walker
// tracks each value's wrap width itself and passes it where a leaf
// needs it.
type Domain[V any] interface {
	// Const is a literal or a compile-time name's value.
	Const(v uint64) V
	// Charge adds a block's charge (Plan) to the step's stage.
	Charge(c pisa.ActionProfile)
	// Decide resolves a branch: is v nonzero?
	Decide(v V) (bool, error)
	// Unary applies MINUS, wrapping at w, or NOT.
	Unary(op lang.Kind, x V, w int) V
	// Binary applies a binary operator and wraps the result at w. For
	// AND and OR the walker has already decided x and not
	// short-circuited, so the result is whether y is nonzero.
	Binary(op lang.Kind, x, y V, w int) (V, error)
	// Builtin applies hash, min or max.
	Builtin(name string, x, y V) V
	// RegRead and RegWrite access one cell of a register instance;
	// width is the register's element width.
	RegRead(name string, inst int64, cell V, width int) V
	RegWrite(name string, inst int64, cell, v V, width int)
	// FieldRead and FieldWrite access a header or metadata field.
	FieldRead(f Field) V
	FieldWrite(f Field, v V)
	// Abort is the error that stops the packet for reason.
	Abort(reason string) error
}

// Guards evaluates step s's invocation guards in order, one decision
// each, stopping at the first that does not hold, and reports whether
// all held.
func Guards[V any, D Domain[V]](d D, u *lang.Unit, syms map[string]int64, s *Step) (bool, error) {
	w := walker[V, D]{d: d, u: u, s: s, plan: s.Plan(u, syms)}
	return w.guards()
}

// Exec runs step s: its guards, then, when all hold, its action body.
func Exec[V any, D Domain[V]](d D, u *lang.Unit, syms map[string]int64, s *Step) error {
	w := walker[V, D]{d: d, u: u, s: s, plan: s.Plan(u, syms)}
	pass, err := w.guards()
	if err != nil || !pass {
		return err
	}
	w.charge(w.plan.Body)
	return w.block(s.Inv.Action.Decl.Body)
}

// walker evaluates one step in one domain.
type walker[V any, D Domain[V]] struct {
	d    D
	u    *lang.Unit
	s    *Step
	plan *Plan
}

// charge adds c to the step's stage unless it is empty.
func (w *walker[V, D]) charge(c pisa.ActionProfile) {
	if c != (pisa.ActionProfile{}) {
		w.d.Charge(c)
	}
}

func (w *walker[V, D]) guards() (bool, error) {
	w.charge(w.plan.Guards)
	for _, g := range w.s.Inv.Guards {
		v, _, err := w.expr(g)
		if err != nil {
			return false, err
		}
		if take, err := w.d.Decide(v); err != nil || !take {
			return false, err
		}
	}
	return true, nil
}

func (w *walker[V, D]) block(b *lang.Block) error {
	w.charge(w.plan.Arms[b])
	for _, s := range b.Stmts {
		if err := w.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *walker[V, D]) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return w.block(s)
	case *lang.AssignStmt:
		v, _, err := w.expr(s.RHS)
		if err != nil {
			return err
		}
		return w.assign(s.LHS, v)
	case *lang.IfStmt:
		c, _, err := w.expr(s.Cond)
		if err != nil {
			return err
		}
		take, err := w.d.Decide(c)
		if err != nil {
			return err
		}
		if take {
			return w.block(s.Then)
		}
		if s.Else != nil {
			return w.block(s.Else)
		}
		return nil
	}
	return w.d.Abort(fmt.Sprintf("unsupported statement %T", s))
}

// expr evaluates an expression and reports the bit width its value
// wraps at: the declared width of the field or register it was loaded
// from, 64 for hash results, and 0 (unconstrained) for literals and
// compile-time names. Arithmetic wraps at the combined operand width,
// the truncation the bit<W> declarations in the generated P4 impose on
// hardware, so intermediate values in guards, comparisons and indexes
// match what a switch computes, not 64-bit Go values.
func (w *walker[V, D]) expr(e lang.Expr) (V, int, error) {
	var zero V
	switch e := e.(type) {
	case *lang.IntLit:
		return w.d.Const(uint64(e.Value)), 0, nil
	case *lang.BoolLit:
		return w.d.Const(b2u(e.Value)), 0, nil
	case *lang.Unary:
		x, wx, err := w.expr(e.X)
		if err != nil {
			return zero, 0, err
		}
		switch e.Op {
		case lang.MINUS:
			return w.d.Unary(e.Op, x, wx), wx, nil
		case lang.NOT:
			return w.d.Unary(e.Op, x, 0), 0, nil
		}
		return zero, 0, w.d.Abort(fmt.Sprintf("unsupported unary %s", e.Op))
	case *lang.Binary:
		x, wx, err := w.expr(e.X)
		if err != nil {
			return zero, 0, err
		}
		if e.Op == lang.AND || e.Op == lang.OR {
			nz, err := w.d.Decide(x)
			if err != nil {
				return zero, 0, err
			}
			if nz != (e.Op == lang.AND) {
				return w.d.Const(b2u(nz)), 0, nil // short circuit
			}
		}
		y, wy, err := w.expr(e.Y)
		if err != nil {
			return zero, 0, err
		}
		ow := opWidth(e.Op, wx, wy)
		v, err := w.d.Binary(e.Op, x, y, ow)
		return v, ow, err
	case *lang.CallExpr:
		x, wx, err := w.expr(e.Args[0])
		if err != nil {
			return zero, 0, err
		}
		y, wy, err := w.expr(e.Args[1])
		if err != nil {
			return zero, 0, err
		}
		return w.d.Builtin(e.Name, x, y), callWidth(e.Name, wx, wy), nil
	case *lang.Ref:
		return w.load(e)
	}
	return zero, 0, w.d.Abort(fmt.Sprintf("unsupported expression %T", e))
}

// Bound returns the register or the field a reference names: the one
// the resolver bound it to, else (a body the resolver never saw) the
// single-instance register or scalar field its name looks up. An
// elastic reference the resolver did not bind has no instance, so it
// names nothing.
func Bound(u *lang.Unit, ref *lang.Ref) (*lang.Register, *lang.MetaField) {
	if ref.Reg != nil || ref.Field != nil {
		return ref.Reg, ref.Field
	}
	if reg := u.RegisterByName(ref.Base()); reg != nil && reg.Decl.Count == nil {
		return reg, nil
	}
	if si := u.StructByName(ref.Base()); si != nil && len(ref.Segs) == 2 {
		if f := si.Field(ref.Segs[1].Name); f != nil && !f.Elastic() {
			return nil, f
		}
	}
	return nil, nil
}

// load reads a reference and reports the declared width of what it
// read (0 for compile-time names).
func (w *walker[V, D]) load(ref *lang.Ref) (V, int, error) {
	var zero V
	if ref.IsSimpleIdent() {
		if v, ok := w.plan.names[ref]; ok {
			return w.d.Const(v), 0, nil
		}
		return zero, 0, w.d.Abort("unknown name " + ref.Base())
	}
	reg, mf := Bound(w.u, ref)
	if reg != nil {
		inst, cell, err := w.register(ref, reg)
		if err != nil {
			return zero, 0, err
		}
		return w.d.RegRead(reg.Name, inst, cell, reg.Width), reg.Width, nil
	}
	if mf != nil {
		f := w.field(ref, mf)
		return w.d.FieldRead(f), f.Width, nil
	}
	return zero, 0, w.d.Abort("cannot read " + lang.PrintExpr(ref))
}

func (w *walker[V, D]) assign(ref *lang.Ref, v V) error {
	reg, mf := Bound(w.u, ref)
	if reg != nil {
		inst, cell, err := w.register(ref, reg)
		if err != nil {
			return err
		}
		w.d.RegWrite(reg.Name, inst, cell, v, reg.Width)
		return nil
	}
	if mf != nil {
		w.d.FieldWrite(w.field(ref, mf), v)
		return nil
	}
	return w.d.Abort("cannot assign to " + lang.PrintExpr(ref))
}

// register resolves a register reference to its instance and cell.
func (w *walker[V, D]) register(ref *lang.Ref, reg *lang.Register) (int64, V, error) {
	var zero V
	seg := ref.Segs[0]
	switch {
	case reg.Decl.Count != nil && len(seg.Indexes) == 2:
		cell, _, err := w.expr(seg.Indexes[1])
		return ref.InstAt(w.s.Iter), cell, err
	case len(seg.Indexes) == 1:
		cell, _, err := w.expr(seg.Indexes[0])
		return 0, cell, err
	}
	return 0, zero, w.d.Abort("malformed register access " + lang.PrintExpr(ref))
}

// field resolves a struct field reference, an elastic field's instance
// included.
func (w *walker[V, D]) field(ref *lang.Ref, f *lang.MetaField) Field {
	fl := Field{MetaField: f}
	if f.Elastic() {
		fl.Idx = uint64(ref.InstAt(w.s.Iter))
	}
	return fl
}
