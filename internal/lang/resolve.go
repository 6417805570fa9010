package lang

import (
	"fmt"
	"strings"
)

// Resolve performs semantic analysis over a parsed program and builds
// the compiler IR. It resolves names (symbolics, constants, structs,
// registers, actions, controls, tables), computes each action's
// dependency footprint, detects commutative reduction writes, and
// linearizes the main control into an invocation sequence. The ALU
// profile is the cost model's (sem.Profile), not the resolver's.
func Resolve(prog *Program, source string) (*Unit, error) {
	r := &resolver{
		unit: &Unit{
			Prog:           prog,
			Source:         source,
			Consts:         make(map[string]int64),
			symbolicByName: make(map[string]*Symbolic),
			registerByName: make(map[string]*Register),
			structByName:   make(map[string]*StructInfo),
			actionByName:   make(map[string]*Action),
			tableByName:    make(map[string]*TableInfo),
			controlByName:  make(map[string]*Control),
		},
	}
	if err := r.collect(); err != nil {
		return nil, err
	}
	if err := r.analyzeActions(); err != nil {
		return nil, err
	}
	if err := r.checkSpecDecls(); err != nil {
		return nil, err
	}
	if err := r.linearize(); err != nil {
		return nil, err
	}
	return r.unit, nil
}

// ParseAndResolve is the common front-end entry point.
func ParseAndResolve(source string) (*Unit, error) {
	prog, err := Parse(source)
	if err != nil {
		return nil, err
	}
	return Resolve(prog, source)
}

type resolver struct {
	unit *Unit
}

// collect gathers all top-level declarations into symbol tables.
func (r *resolver) collect() error {
	u := r.unit
	var collectDecl func(d Decl, owner *ControlDecl) error
	collectDecl = func(d Decl, owner *ControlDecl) error {
		switch d := d.(type) {
		case *SymbolicDecl:
			if u.symbolicByName[d.Name] != nil {
				return errf(d.Pos, "symbolic %s redeclared", d.Name)
			}
			if _, exists := u.Consts[d.Name]; exists {
				return errf(d.Pos, "%s already declared as a constant", d.Name)
			}
			sym := &Symbolic{Name: d.Name, Index: len(u.Symbolics)}
			u.Symbolics = append(u.Symbolics, sym)
			u.symbolicByName[d.Name] = sym
		case *ConstDecl:
			if _, dup := u.Consts[d.Name]; dup || u.symbolicByName[d.Name] != nil {
				return errf(d.Pos, "constant %s redeclared", d.Name)
			}
			v, err := r.evalConst(d.Value)
			if err != nil {
				return err
			}
			u.Consts[d.Name] = v
		case *AssumeDecl:
			u.Assumes = append(u.Assumes, d)
		case *OptimizeDecl:
			if u.Optimize != nil {
				return errf(d.Pos, "multiple optimize declarations (previous at %s)", u.Optimize.Pos)
			}
			u.Optimize = d
		case *StructDecl:
			if u.structByName[d.Name] != nil {
				return errf(d.Pos, "struct %s redeclared", d.Name)
			}
			si := &StructInfo{Name: d.Name, IsHeader: d.IsHeader, byName: make(map[string]*MetaField)}
			for _, f := range d.Fields {
				if si.byName[f.Name] != nil {
					return errf(f.Pos, "field %s redeclared in %s", f.Name, d.Name)
				}
				count := SizeExpr{Const: 1}
				if f.Count != nil {
					var err error
					count, err = r.sizeExpr(f.Count)
					if err != nil {
						return err
					}
				}
				if d.IsHeader && count.IsSymbolic() {
					return errf(f.Pos, "header field %s.%s cannot be elastic (parsed from the wire)", d.Name, f.Name)
				}
				mf := &MetaField{Struct: d.Name, Name: f.Name, Width: f.Type.Width(), Count: count, Header: d.IsHeader}
				si.Fields = append(si.Fields, mf)
				si.byName[f.Name] = mf
			}
			u.Structs = append(u.Structs, si)
			u.structByName[d.Name] = si
		case *RegisterDecl:
			if u.registerByName[d.Name] != nil {
				return errf(d.Pos, "register %s redeclared", d.Name)
			}
			cells, err := r.sizeExpr(d.Cells)
			if err != nil {
				return err
			}
			count := SizeExpr{Const: 1}
			if d.Count != nil {
				count, err = r.sizeExpr(d.Count)
				if err != nil {
					return err
				}
			}
			reg := &Register{Name: d.Name, Width: d.Elem.Width(), Cells: cells, Count: count, Decl: d}
			u.Registers = append(u.Registers, reg)
			u.registerByName[d.Name] = reg
		case *ActionDecl:
			if u.actionByName[d.Name] != nil {
				return errf(d.Pos, "action %s redeclared", d.Name)
			}
			a := &Action{Name: d.Name, Decl: d, Indexed: d.IndexParam != ""}
			for _, ann := range d.Annotations {
				switch ann {
				case "commutative":
					a.Commutative = true
				default:
					return errf(d.Pos, "unknown annotation @%s on action %s", ann, d.Name)
				}
			}
			u.Actions = append(u.Actions, a)
			u.actionByName[d.Name] = a
		case *TableDecl:
			if u.tableByName[d.Name] != nil {
				return errf(d.Pos, "table %s redeclared", d.Name)
			}
			ti := &TableInfo{Name: d.Name, Decl: d, Size: 1024}
			if d.Size != nil {
				v, err := r.evalConst(d.Size)
				if err != nil {
					return err
				}
				ti.Size = v
			}
			u.Tables = append(u.Tables, ti)
			u.tableByName[d.Name] = ti
		case *ControlDecl:
			if u.controlByName[d.Name] != nil {
				return errf(d.Pos, "control %s redeclared", d.Name)
			}
			c := &Control{Name: d.Name, Decl: d}
			u.Controls = append(u.Controls, c)
			u.controlByName[d.Name] = c
			for _, l := range d.Locals {
				if err := collectDecl(l, d); err != nil {
					return err
				}
			}
		default:
			return errf(d.GetPos(), "unsupported declaration %T", d)
		}
		return nil
	}
	for _, d := range u.Prog.Decls {
		if err := collectDecl(d, nil); err != nil {
			return err
		}
	}
	if len(u.Controls) == 0 {
		return errf(Pos{1, 1}, "program has no control block")
	}
	for _, c := range u.Controls {
		low := strings.ToLower(c.Name)
		if low == "main" || low == "ingress" {
			u.Main = c
		}
	}
	if u.Main == nil {
		u.Main = u.Controls[len(u.Controls)-1]
	}
	return nil
}

// evalConst evaluates a compile-time constant expression over literals
// and previously declared constants.
func (r *resolver) evalConst(e Expr) (int64, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *Ref:
		if e.IsSimpleIdent() {
			if v, ok := r.unit.Consts[e.Base()]; ok {
				return v, nil
			}
		}
		return 0, errf(e.Pos, "%s is not a compile-time constant", refText(e))
	case *Unary:
		if e.Op == MINUS {
			v, err := r.evalConst(e.X)
			return -v, err
		}
		return 0, errf(e.Pos, "operator %s not constant-evaluable", e.Op)
	case *Binary:
		x, err := r.evalConst(e.X)
		if err != nil {
			return 0, err
		}
		y, err := r.evalConst(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case PLUS:
			return x + y, nil
		case MINUS:
			return x - y, nil
		case STAR:
			return x * y, nil
		case SLASH:
			if y == 0 {
				return 0, errf(e.Pos, "division by zero in constant expression")
			}
			return x / y, nil
		case PCT:
			if y == 0 {
				return 0, errf(e.Pos, "modulo by zero in constant expression")
			}
			return x % y, nil
		default:
			return 0, errf(e.Pos, "operator %s not constant-evaluable", e.Op)
		}
	default:
		return 0, errf(e.GetPos(), "expression is not a compile-time constant")
	}
}

// sizeExpr resolves an elastic extent: a symbolic name or a constant.
func (r *resolver) sizeExpr(e Expr) (SizeExpr, error) {
	if ref, ok := e.(*Ref); ok && ref.IsSimpleIdent() {
		if sym := r.unit.symbolicByName[ref.Base()]; sym != nil {
			return SizeExpr{Sym: sym}, nil
		}
	}
	v, err := r.evalConst(e)
	if err != nil {
		return SizeExpr{}, errf(e.GetPos(), "extent must be a symbolic value or constant: %v", err)
	}
	if v <= 0 {
		return SizeExpr{}, errf(e.GetPos(), "extent must be positive, got %d", v)
	}
	return SizeExpr{Const: v}, nil
}

// checkSpecDecls validates assume and optimize declarations: they may
// reference only symbolic values and constants.
func (r *resolver) checkSpecDecls() error {
	check := func(e Expr, what string) error {
		var walk func(e Expr) error
		walk = func(e Expr) error {
			switch e := e.(type) {
			case *IntLit, *BoolLit, *FloatLit:
				return nil
			case *Ref:
				if !e.IsSimpleIdent() {
					return errf(e.Pos, "%s may not reference %s (only symbolic values and constants)", what, refText(e))
				}
				name := e.Base()
				if r.unit.symbolicByName[name] == nil {
					if _, ok := r.unit.Consts[name]; !ok {
						return errf(e.Pos, "%s references unknown name %s", what, name)
					}
				}
				return nil
			case *Unary:
				return walk(e.X)
			case *Binary:
				if err := walk(e.X); err != nil {
					return err
				}
				return walk(e.Y)
			case *CallExpr:
				return errf(e.Pos, "%s may not contain calls", what)
			default:
				return errf(e.GetPos(), "%s contains unsupported expression", what)
			}
		}
		return walk(e)
	}
	for _, a := range r.unit.Assumes {
		if err := check(a.Cond, "assume"); err != nil {
			return err
		}
	}
	if r.unit.Optimize != nil {
		if err := check(r.unit.Optimize.Util, "optimize"); err != nil {
			return err
		}
	}
	return nil
}

// analyzeActions computes each declared action's footprint and builds
// synthetic match actions for tables.
func (r *resolver) analyzeActions() error {
	for _, a := range r.unit.Actions {
		if err := r.analyzeAction(a); err != nil {
			return err
		}
	}
	for _, t := range r.unit.Tables {
		match := &Action{
			Name:      t.Name + "__match",
			Indexed:   false,
			Synthetic: true,
		}
		ba := &bodyAnalyzer{r: r, action: match}
		for _, k := range t.Decl.Keys {
			if err := ba.expr(k); err != nil {
				return err
			}
		}
		t.Match = match
		for _, name := range t.Decl.Actions {
			a := r.unit.actionByName[name]
			if a == nil {
				return errf(t.Decl.Pos, "table %s references unknown action %s", t.Name, name)
			}
			if a.Indexed {
				return errf(t.Decl.Pos, "table %s cannot invoke indexed action %s", t.Name, name)
			}
			t.Actions = append(t.Actions, a)
		}
	}
	return nil
}

func (r *resolver) analyzeAction(a *Action) error {
	ba := &bodyAnalyzer{r: r, action: a}
	if err := ba.block(a.Decl.Body); err != nil {
		return err
	}
	ba.finish()
	return nil
}

// bodyAnalyzer walks an action body accumulating its accesses.
type bodyAnalyzer struct {
	r      *resolver
	action *Action
	// regSeen dedups register accesses: key name/class/const.
	regSeen map[string]int // index into action.Registers
}

func (ba *bodyAnalyzer) unit() *Unit { return ba.r.unit }

func (ba *bodyAnalyzer) block(b *Block) error {
	for _, s := range b.Stmts {
		if err := ba.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ba *bodyAnalyzer) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return ba.block(s)
	case *AssignStmt:
		return ba.assign(s)
	case *IfStmt:
		// Detect the guarded min/max update idiom:
		// if (A < X) { X = A; }  — a commutative min-reduction on X.
		if as, ok := singleAssign(s.Then); ok && s.Else == nil && isReductionGuard(s.Cond, as) {
			if err := ba.expr(s.Cond); err != nil {
				return err
			}
			return ba.assignCommutative(as, true)
		}
		if err := ba.expr(s.Cond); err != nil {
			return err
		}
		if err := ba.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return ba.block(s.Else)
		}
		return nil
	case *CallStmt:
		return errf(s.Pos, "actions cannot call other actions (%s)", s.Name)
	case *ApplyStmt:
		return errf(s.Pos, "actions cannot apply controls or tables (%s)", s.Target)
	case *ForStmt:
		return errf(s.Pos, "loops are not allowed inside actions; loop in the control apply and index the action")
	default:
		return errf(s.GetPos(), "unsupported statement in action body")
	}
}

func (ba *bodyAnalyzer) assign(s *AssignStmt) error {
	commutative := isSelfReduction(s.LHS, s.RHS)
	return ba.assignCommutative(s, commutative)
}

func (ba *bodyAnalyzer) assignCommutative(s *AssignStmt, commutative bool) error {
	if err := ba.expr(s.RHS); err != nil {
		return err
	}
	return ba.ref(s.LHS, true, commutative)
}

// ref resolves a reference and records the access. write/commutative
// describe the access when the ref is an lvalue.
func (ba *bodyAnalyzer) ref(ref *Ref, write, commutative bool) error {
	u := ba.unit()
	a := ba.action
	base := ref.Base()

	// Register access: base segment names a register.
	if reg := u.RegisterByName(base); reg != nil {
		seg := ref.Segs[0]
		if len(ref.Segs) != 1 {
			return errf(ref.Pos, "register %s has no fields", base)
		}
		wantIdx := 1
		if reg.Decl.Count != nil {
			wantIdx = 2
		}
		if len(seg.Indexes) != wantIdx {
			return errf(ref.Pos, "register %s requires %d index(es), got %d", base, wantIdx, len(seg.Indexes))
		}
		acc := RegAccess{Reg: reg, Class: IdxScalar, Write: write}
		if wantIdx == 2 {
			cls, cidx, err := ba.instanceIndex(seg.Indexes[0], reg.Name)
			if err != nil {
				return err
			}
			acc.Class = cls
			acc.ConstIdx = cidx
			// The cell index is a runtime expression: analyze reads.
			if err := ba.expr(seg.Indexes[1]); err != nil {
				return err
			}
		} else {
			if err := ba.expr(seg.Indexes[0]); err != nil {
				return err
			}
		}
		ba.recordReg(acc)
		ref.Reg = reg
		return nil
	}

	// Struct field access.
	if si := u.StructByName(base); si != nil {
		if len(ref.Segs) != 2 {
			return errf(ref.Pos, "expected %s.<field>", base)
		}
		if len(ref.Segs[0].Indexes) != 0 {
			return errf(ref.Pos, "struct %s cannot be indexed", base)
		}
		fseg := ref.Segs[1]
		f := si.Field(fseg.Name)
		if f == nil {
			return errf(ref.Pos, "struct %s has no field %s", base, fseg.Name)
		}
		acc := MetaAccess{Field: f, Class: IdxScalar, Write: write, Commutative: commutative}
		elastic := f.Elastic()
		switch {
		case elastic && len(fseg.Indexes) == 1:
			cls, cidx, err := ba.instanceIndex(fseg.Indexes[0], f.Qual())
			if err != nil {
				return err
			}
			acc.Class = cls
			acc.ConstIdx = cidx
		case elastic:
			return errf(ref.Pos, "elastic field %s requires exactly one index", f.Qual())
		case len(fseg.Indexes) != 0:
			return errf(ref.Pos, "scalar field %s cannot be indexed", f.Qual())
		}
		a.Meta = append(a.Meta, acc)
		ref.Field = f
		return nil
	}

	// Bare identifiers.
	if ref.IsSimpleIdent() {
		if u.symbolicByName[base] != nil {
			return nil
		}
		if _, ok := u.Consts[base]; ok {
			return nil
		}
		if a.Decl != nil && base == a.Decl.IndexParam {
			return nil
		}
		if a.Decl != nil {
			for _, p := range a.Decl.Params {
				if p.Name == base {
					return nil
				}
			}
		}
	}
	return errf(ref.Pos, "unknown name %s", refText(ref))
}

// instanceIndex classifies an elastic-instance selector: the action's
// iteration parameter or a compile-time constant.
func (ba *bodyAnalyzer) instanceIndex(e Expr, what string) (IndexClass, int64, error) {
	if ref, ok := e.(*Ref); ok && ref.IsSimpleIdent() {
		if ba.action.Decl != nil && ref.Base() == ba.action.Decl.IndexParam {
			return IdxParam, 0, nil
		}
	}
	v, err := ba.r.evalConst(e)
	if err != nil {
		return 0, 0, errf(e.GetPos(), "instance index of %s must be the action's iteration parameter or a constant", what)
	}
	if v < 0 {
		return 0, 0, errf(e.GetPos(), "instance index of %s is negative (%d)", what, v)
	}
	return IdxConst, v, nil
}

// expr analyzes an expression in read position.
func (ba *bodyAnalyzer) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit, *BoolLit:
		return nil
	case *FloatLit:
		return errf(e.Pos, "decimal literals are only allowed in optimize and assume declarations")
	case *Ref:
		return ba.ref(e, false, false)
	case *Unary:
		return ba.expr(e.X)
	case *Binary:
		if err := ba.expr(e.X); err != nil {
			return err
		}
		return ba.expr(e.Y)
	case *CallExpr:
		switch e.Name {
		case "hash", "min", "max":
		default:
			return errf(e.Pos, "unknown builtin %s (want hash, min, or max)", e.Name)
		}
		if len(e.Args) != 2 {
			return errf(e.Pos, "%s takes 2 arguments, got %d", e.Name, len(e.Args))
		}
		for _, a := range e.Args {
			if err := ba.expr(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return errf(e.GetPos(), "unsupported expression")
	}
}

func (ba *bodyAnalyzer) recordReg(acc RegAccess) {
	if ba.regSeen == nil {
		ba.regSeen = make(map[string]int)
	}
	key := fmt.Sprintf("%s/%d/%d", acc.Reg.Name, acc.Class, acc.ConstIdx)
	if i, ok := ba.regSeen[key]; ok {
		// Merge read+write into a single RMW access.
		if acc.Write {
			ba.action.Registers[i].Write = true
		}
		return
	}
	ba.regSeen[key] = len(ba.action.Registers)
	ba.action.Registers = append(ba.action.Registers, acc)
}

// finish applies whole-action adjustments: an @commutative annotation
// marks every metadata write commutative; a detected reduction write
// marks the action commutative if it is the only write.
func (ba *bodyAnalyzer) finish() {
	a := ba.action
	if a.Commutative {
		for i := range a.Meta {
			if a.Meta[i].Write {
				a.Meta[i].Commutative = true
			}
		}
		return
	}
	writes, commuting := 0, 0
	for _, m := range a.Meta {
		if m.Write {
			writes++
			if m.Commutative {
				commuting++
			}
		}
	}
	if writes > 0 && writes == commuting && !ba.writesRegister() {
		a.Commutative = true
	}
}

func (ba *bodyAnalyzer) writesRegister() bool {
	for _, rg := range ba.action.Registers {
		if rg.Write {
			return true
		}
	}
	return false
}

// singleAssign returns the sole assignment of a block, if that is all
// the block contains.
func singleAssign(b *Block) (*AssignStmt, bool) {
	if b == nil || len(b.Stmts) != 1 {
		return nil, false
	}
	as, ok := b.Stmts[0].(*AssignStmt)
	return as, ok
}

// isReductionGuard reports whether "if (cond) { as }" is a guarded
// min/max update: cond compares A against X and the body sets X = A.
func isReductionGuard(cond Expr, as *AssignStmt) bool {
	bin, ok := cond.(*Binary)
	if !ok {
		return false
	}
	switch bin.Op {
	case LT, LE, GT, GE:
	default:
		return false
	}
	lhs := PrintExpr(as.LHS)
	rhs := PrintExpr(as.RHS)
	x := PrintExpr(bin.X)
	y := PrintExpr(bin.Y)
	// if (A < X) { X = A } or if (X > A) { X = A }.
	return (x == rhs && y == lhs) || (y == rhs && x == lhs)
}

// isSelfReduction reports whether "lhs = rhs" is a commutative
// self-update: lhs = min(lhs, e), lhs = max(lhs, e), or lhs = lhs + e.
func isSelfReduction(lhs *Ref, rhs Expr) bool {
	l := PrintExpr(lhs)
	switch rhs := rhs.(type) {
	case *CallExpr:
		if rhs.Name != "min" && rhs.Name != "max" || len(rhs.Args) != 2 {
			return false
		}
		return PrintExpr(rhs.Args[0]) == l || PrintExpr(rhs.Args[1]) == l
	case *Binary:
		if rhs.Op != PLUS {
			return false
		}
		return PrintExpr(rhs.X) == l || PrintExpr(rhs.Y) == l
	default:
		return false
	}
}
