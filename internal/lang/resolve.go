package lang

import "strings"

// Resolve performs semantic analysis over a parsed program and builds
// the compiler IR. It resolves names (symbolics, constants, structs,
// registers, actions, controls, tables), binds each reference to what
// it names, and linearizes the main control into an invocation
// sequence. What an invocation touches and charges is sem's
// (sem.Footprint, sem.Profile), not the resolver's.
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

// analyzeActions binds the names of each declared action's body and of
// each table's keys, and resolves each table's actions.
func (r *resolver) analyzeActions() error {
	for _, a := range r.unit.Actions {
		if err := r.bindAction(a); err != nil {
			return err
		}
	}
	for _, t := range r.unit.Tables {
		t.Match = &Action{Name: t.Name + "__match", Synthetic: true}
		b := &binder{r: r}
		for _, k := range t.Decl.Keys {
			if err := b.expr(k); err != nil {
				return err
			}
		}
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

func (r *resolver) bindAction(a *Action) error {
	b := &binder{r: r, iter: a.Decl.IndexParam, params: a.Decl.Params}
	return b.block(a.Decl.Body)
}

// binder binds the names of one scope (an action body, a table's keys,
// an if condition of an apply block) and rejects what the language does
// not admit. iter is the scope's iteration name: the action's index
// parameter, or the innermost loop variable around a condition.
type binder struct {
	r      *resolver
	iter   string
	params []Param
	// readIter records that a bound expression read iter.
	readIter bool
}

func (b *binder) block(blk *Block) error {
	for _, s := range blk.Stmts {
		if err := b.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (b *binder) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return b.block(s)
	case *AssignStmt:
		if err := b.expr(s.RHS); err != nil {
			return err
		}
		return b.ref(s.LHS)
	case *IfStmt:
		if err := b.expr(s.Cond); err != nil {
			return err
		}
		if err := b.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return b.block(s.Else)
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

// ref binds a reference to the register or struct field it names.
func (b *binder) ref(ref *Ref) error {
	u := b.r.unit
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
		if wantIdx == 2 {
			inst, err := b.instanceIndex(seg.Indexes[0], reg.Name)
			if err != nil {
				return err
			}
			ref.Inst = inst
		}
		// The cell index is a runtime expression.
		if err := b.expr(seg.Indexes[wantIdx-1]); err != nil {
			return err
		}
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
		elastic := f.Elastic()
		switch {
		case elastic && len(fseg.Indexes) == 1:
			inst, err := b.instanceIndex(fseg.Indexes[0], f.Qual())
			if err != nil {
				return err
			}
			ref.Inst = inst
		case elastic:
			return errf(ref.Pos, "elastic field %s requires exactly one index", f.Qual())
		case len(fseg.Indexes) != 0:
			return errf(ref.Pos, "scalar field %s cannot be indexed", f.Qual())
		}
		ref.Field = f
		return nil
	}

	// Bare identifiers. The iteration shadows a symbolic value or a
	// constant of its name.
	if ref.IsSimpleIdent() {
		if b.isIter(ref) {
			return nil
		}
		if u.symbolicByName[base] != nil {
			return nil
		}
		if _, ok := u.Consts[base]; ok {
			return nil
		}
		for _, p := range b.params {
			if p.Name == base {
				return nil
			}
		}
	}
	return errf(ref.Pos, "unknown name %s", refText(ref))
}

// isIter reports whether ref is a bare name of the scope's iteration,
// and binds it so when it is.
func (b *binder) isIter(ref *Ref) bool {
	if b.iter == "" || !ref.IsSimpleIdent() || ref.Base() != b.iter {
		return false
	}
	ref.Iter = true
	b.readIter = true
	return true
}

// instanceIndex binds an elastic-instance selector: the scope's
// iteration name (IterInst) or a non-negative compile-time constant.
func (b *binder) instanceIndex(e Expr, what string) (int64, error) {
	if ref, ok := e.(*Ref); ok && b.isIter(ref) {
		return IterInst, nil
	}
	v, err := b.r.evalConst(e)
	if err != nil {
		return 0, errf(e.GetPos(), "instance index of %s must be the action's iteration parameter or a constant", what)
	}
	if v < 0 {
		return 0, errf(e.GetPos(), "instance index of %s is negative (%d)", what, v)
	}
	return v, nil
}

// expr binds an expression in read position. A divisor that is a
// compile-time constant zero stops every packet, so it is an error here.
func (b *binder) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit, *BoolLit:
		return nil
	case *FloatLit:
		return errf(e.Pos, "decimal literals are only allowed in optimize and assume declarations")
	case *Ref:
		return b.ref(e)
	case *Unary:
		return b.expr(e.X)
	case *Binary:
		if e.Op == SLASH || e.Op == PCT {
			if v, err := b.r.evalConst(e.Y); err == nil && v == 0 {
				what := "division"
				if e.Op == PCT {
					what = "modulo"
				}
				return errf(e.Pos, "%s by zero", what)
			}
		}
		if err := b.expr(e.X); err != nil {
			return err
		}
		return b.expr(e.Y)
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
			if err := b.expr(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return errf(e.GetPos(), "unsupported expression")
	}
}
