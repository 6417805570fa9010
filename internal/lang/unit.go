package lang

// This file defines the resolved intermediate representation (the
// "Unit") that the compiler's later stages — dependency analysis, loop
// unrolling, and ILP generation — consume.

// Symbolic is a declared compile-time symbolic integer.
type Symbolic struct {
	Name  string
	Index int // position in Unit.Symbolics
}

// SizeExpr is an elastic extent: either a symbolic value or a constant.
type SizeExpr struct {
	Sym   *Symbolic // nil for constant extents
	Const int64     // used when Sym is nil
}

// IsSymbolic reports whether the extent is governed by a symbolic.
func (s SizeExpr) IsSymbolic() bool { return s.Sym != nil }

func (s SizeExpr) String() string {
	if s.Sym != nil {
		return s.Sym.Name
	}
	return itoa(int(s.Const))
}

// Register is a resolved register array (possibly an elastic array of
// arrays).
type Register struct {
	Name  string
	Width int      // element width in bits
	Cells SizeExpr // cells per array instance
	Count SizeExpr // number of array instances
	Decl  *RegisterDecl
}

// MetaField is a resolved struct/header field, possibly elastic.
type MetaField struct {
	Struct string // owning struct name
	Name   string
	Width  int
	Count  SizeExpr // Count.Const == 1 for scalar fields
	Header bool     // true if declared in a header (parsed from packet)
}

// Qual returns the qualified field name "struct.field".
func (f *MetaField) Qual() string { return f.Struct + "." + f.Name }

// Elastic reports whether the field has instances, each accessed by
// index: a symbolic extent, or a constant one above one.
func (f *MetaField) Elastic() bool { return f.Count.IsSymbolic() || f.Count.Const > 1 }

// StructInfo is a resolved struct or header declaration.
type StructInfo struct {
	Name     string
	IsHeader bool
	Fields   []*MetaField
	byName   map[string]*MetaField
}

// Field returns the named field, or nil.
func (s *StructInfo) Field(name string) *MetaField { return s.byName[name] }

// Action is a resolved action as the source declares it. What storage
// an invocation of it touches is sem's footprint (sem.Footprint).
type Action struct {
	Name        string
	Decl        *ActionDecl
	Indexed     bool
	Commutative bool // @commutative annotation
	Synthetic   bool // generated from a bare apply-block statement
}

// TableInfo is a resolved match-action table. Per the paper's §4.4
// limitation, tables are not placed by the ILP; they participate in
// dependency analysis through a synthetic match action, whose footprint
// is the table's keys.
type TableInfo struct {
	Name    string
	Decl    *TableDecl
	Match   *Action   // synthetic match action (no body)
	Actions []*Action // the table's invocable actions
	Size    int64
}

// Control is a resolved control block.
type Control struct {
	Name string
	Decl *ControlDecl
}

// LoopRef identifies one elastic loop in the linearized program.
type LoopRef struct {
	ID   int
	Sym  *Symbolic
	Var  string
	Decl *ForStmt
}

// Invocation is one action call site in linearized main-program order.
// Elastic invocations carry the loop they iterate under (innermost
// loop; enclosing loops appear in Loops outermost-first).
type Invocation struct {
	Action *Action
	Loops  []*LoopRef // empty for inelastic invocations
	Guards []Expr     // enclosing if-conditions (treated as reads)
	Order  int        // program-order position
	// HasConstIndex marks an indexed call pinned to one constant
	// instance (incr()[0] outside a loop); ConstIndex is that
	// instance.
	HasConstIndex bool
	ConstIndex    int64
}

// Elastic reports whether the invocation sits inside a symbolic loop.
func (inv *Invocation) Elastic() bool { return len(inv.Loops) > 0 }

// Loop returns the innermost loop, or nil.
func (inv *Invocation) Loop() *LoopRef {
	if len(inv.Loops) == 0 {
		return nil
	}
	return inv.Loops[len(inv.Loops)-1]
}

// Unit is a fully resolved P4All program.
type Unit struct {
	Prog      *Program
	Source    string
	Symbolics []*Symbolic
	Consts    map[string]int64
	Assumes   []*AssumeDecl
	Optimize  *OptimizeDecl
	Registers []*Register
	Structs   []*StructInfo
	Actions   []*Action
	Tables    []*TableInfo
	Controls  []*Control
	Main      *Control
	// Invocations is the linearized program: every action call in
	// main-program order with loop context.
	Invocations []*Invocation
	// Loops lists every elastic loop in the program.
	Loops []*LoopRef

	symbolicByName map[string]*Symbolic
	registerByName map[string]*Register
	structByName   map[string]*StructInfo
	actionByName   map[string]*Action
	tableByName    map[string]*TableInfo
	controlByName  map[string]*Control
}

// SymbolicByName returns the named symbolic, or nil.
func (u *Unit) SymbolicByName(name string) *Symbolic { return u.symbolicByName[name] }

// RegisterByName returns the named register, or nil.
func (u *Unit) RegisterByName(name string) *Register { return u.registerByName[name] }

// ActionByName returns the named action, or nil.
func (u *Unit) ActionByName(name string) *Action { return u.actionByName[name] }

// StructByName returns the named struct, or nil.
func (u *Unit) StructByName(name string) *StructInfo { return u.structByName[name] }

// FixedPHVBits returns the PHV bits consumed by inelastic storage:
// every scalar field and every constant-extent elastic field, across
// headers and metadata (the P_fixed of constraint #13).
func (u *Unit) FixedPHVBits() int {
	bits := 0
	for _, s := range u.Structs {
		for _, f := range s.Fields {
			if f.Count.IsSymbolic() {
				continue
			}
			bits += f.Width * int(f.Count.Const)
		}
	}
	return bits
}

// ElasticFields returns every field whose extent is symbolic.
func (u *Unit) ElasticFields() []*MetaField {
	var out []*MetaField
	for _, s := range u.Structs {
		for _, f := range s.Fields {
			if f.Count.IsSymbolic() {
				out = append(out, f)
			}
		}
	}
	return out
}
