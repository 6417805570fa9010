package codegen

import (
	"fmt"
	"strings"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
)

// This file defines the concrete program IR: the structured form of the
// generated P4 that Render prints. Build is the single place where
// symbolic substitution happens — elastic extents become solved
// constants, index parameters become iteration literals, elastic
// references become expanded instance names.

// Concrete is the emitted program for one solved layout.
type Concrete struct {
	Target    string
	Symbolics []SymValue // sorted by name
	Structs   []CStruct
	Registers []CReg
	Tables    []CTable
	Actions   []CAction
	Apply     []CApplyStep
}

// SymValue is one solved symbolic assignment.
type SymValue struct {
	Name  string
	Value int64
}

// CStruct is a struct or header with elastic fields expanded.
type CStruct struct {
	Name     string
	IsHeader bool
	Fields   []CField
}

// CField is one expanded field instance. Index is -1 for scalar fields
// (rendered "name"), or the instance number (rendered "name_i").
type CField struct {
	Name  string
	Width int
	Index int64
}

// CReg is one materialized register array instance.
type CReg struct {
	Name   string
	Index  int64
	Width  int
	Cells  int64
	Stages []int
}

// CTable is a match-action table (inelastic; placed via its synthetic
// match action).
type CTable struct {
	Name    string
	Stage   int
	Keys    []CExpr
	Actions []string
	Size    int64
}

// CAction is one concrete action: a placed instance of an elastic
// action with the iteration substituted.
type CAction struct {
	Name  string
	Stage int
	Body  []CStmt
}

// CApplyStep is one entry of the apply block, in emission order.
// Exactly one of Table and Action is non-empty.
type CApplyStep struct {
	Table  string
	Action string
	Stage  int
	Guards []CExpr // invocation guards wrapping an action call
}

// CStmt is a concrete statement.
type CStmt interface{ isCStmt() }

// CAssign is "LHS = RHS;".
type CAssign struct {
	LHS CExpr
	RHS CExpr
}

// CIf is a conditional. HasElse distinguishes an absent else branch
// from an empty one (they render differently).
type CIf struct {
	Cond    CExpr
	Then    []CStmt
	Else    []CStmt
	HasElse bool
}

// CElided marks a statement the generator does not support.
type CElided struct{}

func (*CAssign) isCStmt() {}
func (*CIf) isCStmt()     {}
func (*CElided) isCStmt() {}

// CExpr is a concrete expression.
type CExpr interface{ isCExpr() }

// CInt is an integer literal (also the substituted form of iteration
// parameters, symbolics, and named constants).
type CInt struct{ Value int64 }

// CBool is a boolean literal.
type CBool struct{ Value bool }

// CUnary applies a prefix operator.
type CUnary struct {
	Op lang.Kind
	X  CExpr
}

// CBinary applies a binary operator.
type CBinary struct {
	Op   lang.Kind
	X, Y CExpr
}

// CCall is a builtin call (hash/min/max).
type CCall struct {
	Name string
	Args []CExpr
}

// CRegRef is a cell access of one register array instance,
// rendered "name_inst[idx]".
type CRegRef struct {
	Reg  string
	Inst int64
	Idx  CExpr
}

// CFieldRef is a struct/header field access. Index is -1 when the
// reference renders without an instance suffix; Elastic records
// whether the declared field has an elastic extent.
type CFieldRef struct {
	Struct  string
	Field   string
	Index   int64
	Elastic bool
}

// CName is a bare identifier the generator could not resolve; it is
// rendered verbatim and rejected by the validator.
type CName struct{ Name string }

// CRaw is fallback text for reference shapes the generator does not
// model; rendered verbatim and rejected by the validator.
type CRaw struct{ Text string }

func (*CInt) isCExpr()      {}
func (*CBool) isCExpr()     {}
func (*CUnary) isCExpr()    {}
func (*CBinary) isCExpr()   {}
func (*CCall) isCExpr()     {}
func (*CRegRef) isCExpr()   {}
func (*CFieldRef) isCExpr() {}
func (*CName) isCExpr()     {}
func (*CRaw) isCExpr()      {}

// builder constructs the Concrete IR from a unit and layout.
type builder struct {
	u      *lang.Unit
	layout *ilpgen.Layout
	regs   map[string]ilpgen.RegPlacement
}

// Build constructs the concrete program IR for the layout.
func Build(u *lang.Unit, layout *ilpgen.Layout) (*Concrete, error) {
	b := &builder{u: u, layout: layout, regs: map[string]ilpgen.RegPlacement{}}
	for _, rp := range layout.Registers {
		b.regs[fmt.Sprintf("%s/%d", rp.Register, rp.Index)] = rp
	}
	c := &Concrete{Target: layout.Target.Name}

	names := make([]string, 0, len(layout.Symbolics))
	for n := range layout.Symbolics {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		c.Symbolics = append(c.Symbolics, SymValue{Name: n, Value: layout.Symbolics[n]})
	}

	for _, s := range u.Structs {
		cs := CStruct{Name: s.Name, IsHeader: s.IsHeader}
		for _, f := range s.Fields {
			n := b.sizeValue(f.Count)
			if n == 1 && !f.Count.IsSymbolic() {
				cs.Fields = append(cs.Fields, CField{Name: f.Name, Width: f.Width, Index: -1})
				continue
			}
			for i := int64(0); i < n; i++ {
				cs.Fields = append(cs.Fields, CField{Name: f.Name, Width: f.Width, Index: i})
			}
		}
		c.Structs = append(c.Structs, cs)
	}

	for _, r := range u.Registers {
		count := b.sizeValue(r.Count)
		for i := int64(0); i < count; i++ {
			rp, ok := b.regs[fmt.Sprintf("%s/%d", r.Name, i)]
			if !ok {
				continue
			}
			c.Registers = append(c.Registers, CReg{
				Name:   r.Name,
				Index:  i,
				Width:  r.Width,
				Cells:  rp.Cells,
				Stages: append([]int(nil), rp.Stages...),
			})
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
		ct := CTable{Name: tbl.Name, Stage: stage, Size: tbl.Size}
		for _, k := range tbl.Decl.Keys {
			ct.Keys = append(ct.Keys, b.expr(k, nil, 0))
		}
		for _, a := range tbl.Actions {
			ct.Actions = append(ct.Actions, a.Name)
			tableActions[a.Name] = true
		}
		c.Tables = append(c.Tables, ct)
	}

	emitted := map[string]bool{}
	for _, pl := range layout.Placements {
		a := u.ActionByName(pl.Action)
		if a == nil || a.Decl == nil || a.Decl.Body == nil {
			continue
		}
		name := concreteActionName(pl)
		if emitted[name] {
			continue
		}
		emitted[name] = true
		ca := CAction{Name: name, Stage: pl.Stage}
		for _, st := range a.Decl.Body.Stmts {
			ca.Body = append(ca.Body, b.stmt(st, a, pl.Iter)...)
		}
		c.Actions = append(c.Actions, ca)
	}

	for _, pl := range layout.Schedule(u) {
		if tbl, ok := tableOfMatch[pl.Action]; ok {
			c.Apply = append(c.Apply, CApplyStep{Table: tbl.Name, Stage: pl.Stage})
			continue
		}
		if tableActions[pl.Action] {
			continue // dispatched by its table
		}
		a := u.ActionByName(pl.Action)
		if a == nil || a.Decl == nil || a.Decl.Body == nil {
			continue
		}
		step := CApplyStep{Action: concreteActionName(pl), Stage: pl.Stage}
		if inv := b.invocationFor(pl); inv != nil {
			for _, cond := range inv.Guards {
				step.Guards = append(step.Guards, b.expr(cond, a, pl.Iter))
			}
		}
		c.Apply = append(c.Apply, step)
	}
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

// stmt lowers a statement with the iteration and symbolic substitutions
// applied. Blocks are flattened (rendering is depth-based, so this is
// text-preserving).
func (b *builder) stmt(s lang.Stmt, a *lang.Action, iter int) []CStmt {
	switch s := s.(type) {
	case *lang.Block:
		var out []CStmt
		for _, inner := range s.Stmts {
			out = append(out, b.stmt(inner, a, iter)...)
		}
		return out
	case *lang.AssignStmt:
		return []CStmt{&CAssign{LHS: b.expr(s.LHS, a, iter), RHS: b.expr(s.RHS, a, iter)}}
	case *lang.IfStmt:
		ci := &CIf{Cond: b.expr(s.Cond, a, iter)}
		for _, inner := range s.Then.Stmts {
			ci.Then = append(ci.Then, b.stmt(inner, a, iter)...)
		}
		if s.Else != nil {
			ci.HasElse = true
			for _, inner := range s.Else.Stmts {
				ci.Else = append(ci.Else, b.stmt(inner, a, iter)...)
			}
		}
		return []CStmt{ci}
	default:
		return []CStmt{&CElided{}}
	}
}

// expr lowers an expression with concrete substitutions: the action's
// index parameter becomes the iteration number, symbolic references
// become their solved values, elastic field and register references
// become their expanded instances.
func (b *builder) expr(e lang.Expr, a *lang.Action, iter int) CExpr {
	switch e := e.(type) {
	case *lang.IntLit:
		return &CInt{Value: e.Value}
	case *lang.BoolLit:
		return &CBool{Value: e.Value}
	case *lang.Unary:
		return &CUnary{Op: e.Op, X: b.expr(e.X, a, iter)}
	case *lang.Binary:
		return &CBinary{Op: e.Op, X: b.expr(e.X, a, iter), Y: b.expr(e.Y, a, iter)}
	case *lang.CallExpr:
		call := &CCall{Name: e.Name}
		for _, arg := range e.Args {
			call.Args = append(call.Args, b.expr(arg, a, iter))
		}
		return call
	case *lang.Ref:
		return b.ref(e, a, iter)
	default:
		return &CRaw{Text: "/*?*/"}
	}
}

func (b *builder) ref(r *lang.Ref, a *lang.Action, iter int) CExpr {
	base := r.Base()
	if r.IsSimpleIdent() {
		if a != nil && a.Decl != nil && base == a.Decl.IndexParam {
			return &CInt{Value: int64(iter)}
		}
		if sym := b.u.SymbolicByName(base); sym != nil {
			return &CInt{Value: b.value(sym)}
		}
		if v, ok := b.u.Consts[base]; ok {
			return &CInt{Value: v}
		}
		return &CName{Name: base}
	}
	if reg := b.u.RegisterByName(base); reg != nil {
		seg := r.Segs[0]
		if reg.Decl.Count != nil && len(seg.Indexes) == 2 {
			inst := b.indexValue(seg.Indexes[0], a, iter)
			return &CRegRef{Reg: reg.Name, Inst: inst, Idx: b.expr(seg.Indexes[1], a, iter)}
		}
		if len(seg.Indexes) == 1 {
			return &CRegRef{Reg: reg.Name, Idx: b.expr(seg.Indexes[0], a, iter)}
		}
	}
	if si := b.u.StructByName(base); si != nil && len(r.Segs) == 2 {
		fseg := r.Segs[1]
		f := si.Field(fseg.Name)
		if f != nil {
			cf := &CFieldRef{Struct: base, Field: f.Name, Index: -1, Elastic: f.Elastic()}
			if cf.Elastic && len(fseg.Indexes) == 1 {
				cf.Index = b.indexValue(fseg.Indexes[0], a, iter)
			}
			return cf
		}
	}
	// Fallback: print with substituted indexes.
	var sb strings.Builder
	for i, seg := range r.Segs {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(seg.Name)
		for _, idx := range seg.Indexes {
			fmt.Fprintf(&sb, "[%s]", renderExpr(b.expr(idx, a, iter)))
		}
	}
	return &CRaw{Text: sb.String()}
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
