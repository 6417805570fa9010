package codegen

import (
	"cmp"
	"slices"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
)

// This file lowers a unit and its layout into the emitted program.
// Build is the single place where symbolic substitution happens —
// elastic extents become solved constants, index parameters become
// iteration literals, elastic references become expanded instance
// names.

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
			td.Keys = append(td.Keys, b.expr(k, nil, 0))
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
		decl(&lang.ActionDecl{Stages: []int{pl.Stage}, Name: name, Body: b.block(a.Decl.Body, a, pl.Iter)})
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
				st = &lang.IfStmt{Cond: b.expr(inv.Guards[i], a, pl.Iter), Then: &lang.Block{Stmts: []lang.Stmt{st}}}
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
func (b *builder) block(in *lang.Block, a *lang.Action, iter int) *lang.Block {
	out := &lang.Block{}
	for _, s := range in.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			out.Stmts = append(out.Stmts, b.block(s, a, iter).Stmts...)
		case *lang.AssignStmt:
			lhs, ok := b.ref(s.LHS, a, iter).(*lang.Ref)
			if !ok {
				lhs = b.raw(s.LHS, a, iter)
			}
			out.Stmts = append(out.Stmts, &lang.AssignStmt{LHS: lhs, RHS: b.expr(s.RHS, a, iter)})
		case *lang.IfStmt:
			is := &lang.IfStmt{Cond: b.expr(s.Cond, a, iter), Then: b.block(s.Then, a, iter)}
			if s.Else != nil {
				is.Else = b.block(s.Else, a, iter)
			}
			out.Stmts = append(out.Stmts, is)
		}
	}
	return out
}

// expr lowers an expression with concrete substitutions: the action's
// index parameter becomes the iteration number, symbolic references
// become their solved values, elastic field and register references
// become their expanded instances.
func (b *builder) expr(e lang.Expr, a *lang.Action, iter int) lang.Expr {
	switch e := e.(type) {
	case *lang.IntLit:
		return &lang.IntLit{Value: e.Value}
	case *lang.BoolLit:
		return &lang.BoolLit{Value: e.Value}
	case *lang.Unary:
		return &lang.Unary{Op: e.Op, X: b.expr(e.X, a, iter)}
	case *lang.Binary:
		return &lang.Binary{Op: e.Op, X: b.expr(e.X, a, iter), Y: b.expr(e.Y, a, iter)}
	case *lang.CallExpr:
		call := &lang.CallExpr{Name: e.Name}
		for _, arg := range e.Args {
			call.Args = append(call.Args, b.expr(arg, a, iter))
		}
		return call
	case *lang.Ref:
		return b.ref(e, a, iter)
	default:
		return e
	}
}

func (b *builder) ref(r *lang.Ref, a *lang.Action, iter int) lang.Expr {
	base := r.Base()
	if r.IsSimpleIdent() {
		if a != nil && a.Decl != nil && base == a.Decl.IndexParam {
			return &lang.IntLit{Value: int64(iter)}
		}
		if sym := b.u.SymbolicByName(base); sym != nil {
			return &lang.IntLit{Value: b.value(sym)}
		}
		if v, ok := b.u.Consts[base]; ok {
			return &lang.IntLit{Value: v}
		}
	}
	if reg := b.u.RegisterByName(base); reg != nil {
		seg := r.Segs[0]
		if reg.Decl.Count != nil && len(seg.Indexes) == 2 {
			inst := b.indexValue(seg.Indexes[0], a, iter)
			return cell(InstanceName(reg.Name, int(inst)), b.expr(seg.Indexes[1], a, iter))
		}
		if len(seg.Indexes) == 1 {
			return cell(InstanceName(reg.Name, 0), b.expr(seg.Indexes[0], a, iter))
		}
	}
	if si := b.u.StructByName(base); si != nil && len(r.Segs) == 2 {
		fseg := r.Segs[1]
		if f := si.Field(fseg.Name); f != nil {
			name := f.Name
			if f.Elastic() && len(fseg.Indexes) == 1 {
				name = InstanceName(f.Name, int(b.indexValue(fseg.Indexes[0], a, iter)))
			}
			return &lang.Ref{Segs: []lang.Seg{{Name: base}, {Name: name}}}
		}
	}
	return b.raw(r, a, iter)
}

// cell is one cell of a register instance: "name[idx]".
func cell(name string, idx lang.Expr) *lang.Ref {
	return &lang.Ref{Segs: []lang.Seg{{Name: name, Indexes: []lang.Expr{idx}}}}
}

// raw is the fallback for a reference shape the builder does not
// model: the path with its indexes substituted, which names nothing
// the emitted program declares, so the validator rejects the text.
func (b *builder) raw(r *lang.Ref, a *lang.Action, iter int) *lang.Ref {
	out := &lang.Ref{}
	for _, seg := range r.Segs {
		s := lang.Seg{Name: seg.Name}
		for _, idx := range seg.Indexes {
			s.Indexes = append(s.Indexes, b.expr(idx, a, iter))
		}
		out.Segs = append(out.Segs, s)
	}
	return out
}

func (b *builder) indexValue(e lang.Expr, a *lang.Action, iter int) int64 {
	if ref, ok := e.(*lang.Ref); ok && ref.IsSimpleIdent() {
		if a != nil && a.Decl != nil && ref.Base() == a.Decl.IndexParam {
			return int64(iter)
		}
		if v, ok := b.u.Consts[ref.Base()]; ok {
			return v
		}
	}
	if lit, ok := e.(*lang.IntLit); ok {
		return lit.Value
	}
	return 0
}
