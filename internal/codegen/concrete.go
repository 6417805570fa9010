package codegen

import (
	"cmp"
	"slices"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
)

// This file lowers a unit and its layout into the emitted program.
// Build is the single place where symbolic substitution happens —
// elastic extents become solved constants, names bound to the iteration
// become iteration literals, elastic references become the expanded
// names of the instances the resolver bound them to.

// Concrete is the emitted program for one solved layout.
type Concrete struct {
	Target    string
	Symbolics []SymValue // sorted by name
	// Program holds, in order: the structs and headers with elastic
	// fields expanded, one register per placed instance, the tables,
	// the placed action instances, and control main.
	Program *lang.Program
}

// SymValue is one solved symbolic assignment.
type SymValue struct {
	Name  string
	Value int64
}

// builder lowers the unit under the layout.
type builder struct {
	u      *lang.Unit
	layout *ilpgen.Layout
}

// Build constructs the concrete program for the layout.
func Build(u *lang.Unit, layout *ilpgen.Layout) (*Concrete, error) {
	b := &builder{u: u, layout: layout}
	c := &Concrete{Target: layout.Target.Name, Program: &lang.Program{}}
	for n, v := range layout.Symbolics {
		c.Symbolics = append(c.Symbolics, SymValue{Name: n, Value: v})
	}
	slices.SortFunc(c.Symbolics, func(x, y SymValue) int { return cmp.Compare(x.Name, y.Name) })
	decl := func(d lang.Decl) { c.Program.Decls = append(c.Program.Decls, d) }

	for _, s := range u.Structs {
		sd := &lang.StructDecl{Name: s.Name, IsHeader: s.IsHeader}
		for _, f := range s.Fields {
			typ := lang.TypeRef{Bits: f.Width}
			n := b.sizeValue(f.Count)
			if n == 1 && !f.Count.IsSymbolic() {
				sd.Fields = append(sd.Fields, lang.Field{Type: typ, Name: f.Name})
				continue
			}
			for i := range n {
				sd.Fields = append(sd.Fields, lang.Field{Type: typ, Name: InstanceName(f.Name, int(i))})
			}
		}
		decl(sd)
	}

	type regKey struct {
		name  string
		index int
	}
	regs := map[regKey]ilpgen.RegPlacement{}
	for _, rp := range layout.Registers {
		regs[regKey{rp.Register, rp.Index}] = rp
	}
	for _, r := range u.Registers {
		for i := range int(b.sizeValue(r.Count)) {
			if rp, ok := regs[regKey{r.Name, i}]; ok {
				decl(&lang.RegisterDecl{
					Stages: slices.Clone(rp.Stages),
					Elem:   lang.TypeRef{Bits: r.Width},
					Cells:  &lang.IntLit{Value: rp.Cells},
					Name:   InstanceName(r.Name, i),
				})
			}
		}
	}

	tableActions := map[string]bool{}
	tableOfMatch := map[string]*lang.TableInfo{}
	for _, tbl := range u.Tables {
		tableOfMatch[tbl.Match.Name] = tbl
		stage := -1
		for _, pl := range layout.Placements {
			if pl.Action == tbl.Match.Name {
				stage = pl.Stage
			}
		}
		td := &lang.TableDecl{Stages: []int{stage}, Name: tbl.Name, Size: &lang.IntLit{Value: tbl.Size}}
		for _, k := range tbl.Decl.Keys {
			td.Keys = append(td.Keys, b.expr(k, 0))
		}
		for _, a := range tbl.Actions {
			td.Actions = append(td.Actions, a.Name)
			tableActions[a.Name] = true
		}
		decl(td)
	}

	emitted := map[string]bool{}
	for _, pl := range layout.Placements {
		a := u.ActionByName(pl.Action)
		name := InstanceName(pl.Action, pl.Iter)
		if a == nil || a.Decl == nil || a.Decl.Body == nil || emitted[name] {
			continue
		}
		emitted[name] = true
		decl(&lang.ActionDecl{Stages: []int{pl.Stage}, Name: name, Body: b.block(a.Decl.Body, pl.Iter)})
	}

	apply := &lang.Block{}
	for _, pl := range layout.Schedule(u) {
		if tbl, ok := tableOfMatch[pl.Action]; ok {
			apply.Stmts = append(apply.Stmts, &lang.ApplyStmt{Target: tbl.Name})
			continue
		}
		if tableActions[pl.Action] {
			continue // dispatched by its table
		}
		a := u.ActionByName(pl.Action)
		if a == nil || a.Decl == nil || a.Decl.Body == nil {
			continue
		}
		// One if per guard, nested: the guard list short-circuits
		// as the source's evaluates it.
		var st lang.Stmt = &lang.CallStmt{Name: InstanceName(pl.Action, pl.Iter)}
		if inv := b.invocationFor(pl); inv != nil {
			for i := len(inv.Guards) - 1; i >= 0; i-- {
				st = &lang.IfStmt{Cond: b.expr(inv.Guards[i], pl.Iter), Then: &lang.Block{Stmts: []lang.Stmt{st}}}
			}
		}
		apply.Stmts = append(apply.Stmts, st)
	}
	decl(&lang.ControlDecl{Name: "main", Apply: apply})
	return c, nil
}

func (b *builder) value(sym *lang.Symbolic) int64 {
	return b.layout.Symbolics[sym.Name]
}

func (b *builder) sizeValue(s lang.SizeExpr) int64 {
	if s.IsSymbolic() {
		return b.value(s.Sym)
	}
	return s.Const
}

// invocationFor finds the invocation behind a placement (for guards):
// the first invocation of the placed action, matching the simulator's
// step construction.
func (b *builder) invocationFor(pl ilpgen.Placement) *lang.Invocation {
	for _, inv := range b.u.Invocations {
		if inv.Action.Name == pl.Action {
			return inv
		}
	}
	return nil
}

// block lowers an action body with the iteration and symbolic
// substitutions applied. Nested blocks are flattened. An action body
// holds only assignments, ifs and blocks (resolve rejects the rest).
func (b *builder) block(in *lang.Block, iter int) *lang.Block {
	out := &lang.Block{}
	for _, s := range in.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			out.Stmts = append(out.Stmts, b.block(s, iter).Stmts...)
		case *lang.AssignStmt:
			lhs, ok := b.ref(s.LHS, iter).(*lang.Ref)
			if !ok {
				lhs = b.raw(s.LHS, iter)
			}
			out.Stmts = append(out.Stmts, &lang.AssignStmt{LHS: lhs, RHS: b.expr(s.RHS, iter)})
		case *lang.IfStmt:
			is := &lang.IfStmt{Cond: b.expr(s.Cond, iter), Then: b.block(s.Then, iter)}
			if s.Else != nil {
				is.Else = b.block(s.Else, iter)
			}
			out.Stmts = append(out.Stmts, is)
		}
	}
	return out
}

// expr lowers an expression with concrete substitutions: a name the
// resolver bound to the iteration becomes the iteration number,
// symbolic references become their solved values, elastic field and
// register references become the instances the resolver bound them to.
func (b *builder) expr(e lang.Expr, iter int) lang.Expr {
	switch e := e.(type) {
	case *lang.IntLit:
		return &lang.IntLit{Value: e.Value}
	case *lang.BoolLit:
		return &lang.BoolLit{Value: e.Value}
	case *lang.Unary:
		return &lang.Unary{Op: e.Op, X: b.expr(e.X, iter)}
	case *lang.Binary:
		return &lang.Binary{Op: e.Op, X: b.expr(e.X, iter), Y: b.expr(e.Y, iter)}
	case *lang.CallExpr:
		call := &lang.CallExpr{Name: e.Name}
		for _, arg := range e.Args {
			call.Args = append(call.Args, b.expr(arg, iter))
		}
		return call
	case *lang.Ref:
		return b.ref(e, iter)
	default:
		return e
	}
}

func (b *builder) ref(r *lang.Ref, iter int) lang.Expr {
	if r.Iter {
		return &lang.IntLit{Value: int64(iter)}
	}
	if r.IsSimpleIdent() {
		if sym := b.u.SymbolicByName(r.Base()); sym != nil {
			return &lang.IntLit{Value: b.value(sym)}
		}
		if v, ok := b.u.Consts[r.Base()]; ok {
			return &lang.IntLit{Value: v}
		}
	}
	if reg := r.Reg; reg != nil {
		idx := r.Segs[0].Indexes
		if reg.Decl.Count != nil {
			return cell(InstanceName(reg.Name, int(r.InstAt(iter))), b.expr(idx[1], iter))
		}
		return cell(InstanceName(reg.Name, 0), b.expr(idx[0], iter))
	}
	if f := r.Field; f != nil {
		name := f.Name
		if f.Elastic() {
			name = InstanceName(f.Name, int(r.InstAt(iter)))
		}
		return &lang.Ref{Segs: []lang.Seg{{Name: f.Struct}, {Name: name}}}
	}
	return b.raw(r, iter)
}

// cell is one cell of a register instance: "name[idx]".
func cell(name string, idx lang.Expr) *lang.Ref {
	return &lang.Ref{Segs: []lang.Seg{{Name: name, Indexes: []lang.Expr{idx}}}}
}

// raw is the fallback for a reference shape the builder does not
// model: the path with its indexes substituted, which names nothing
// the emitted program declares, so the validator rejects the text.
func (b *builder) raw(r *lang.Ref, iter int) *lang.Ref {
	out := &lang.Ref{}
	for _, seg := range r.Segs {
		s := lang.Seg{Name: seg.Name}
		for _, idx := range seg.Indexes {
			s.Indexes = append(s.Indexes, b.expr(idx, iter))
		}
		out.Segs = append(out.Segs, s)
	}
	return out
}
