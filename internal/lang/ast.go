package lang

// This file defines the P4All abstract syntax tree. Node positions
// refer to the first token of the construct.

// Program is a parsed P4All source file.
type Program struct {
	Decls []Decl
}

// Decl is any top-level declaration.
type Decl interface {
	declNode()
	GetPos() Pos
}

// TypeRef is a value type: bit<N>, int, or bool.
type TypeRef struct {
	Bits   int // width for bit<N>; 32 for int; 1 for bool
	IsBool bool
	IsInt  bool
}

// Width returns the storage width of the type in bits.
func (t TypeRef) Width() int { return t.Bits }

func (t TypeRef) String() string {
	switch {
	case t.IsBool:
		return "bool"
	case t.IsInt:
		return "int"
	default:
		return "bit<" + itoa(t.Bits) + ">"
	}
}

// SymbolicDecl declares a compile-time symbolic integer: symbolic int x;
type SymbolicDecl struct {
	Pos  Pos
	Name string
}

// AssumeDecl constrains symbolic values: assume 1 <= rows && rows <= 4;
type AssumeDecl struct {
	Pos  Pos
	Cond Expr
}

// OptimizeDecl declares the utility function the compiler maximizes.
type OptimizeDecl struct {
	Pos  Pos
	Util Expr
}

// ConstDecl binds a name to a compile-time constant expression.
type ConstDecl struct {
	Pos   Pos
	Name  string
	Value Expr
}

// Field is one struct/header member, optionally elastic:
// bit<32>[rows] index;
type Field struct {
	Pos   Pos
	Type  TypeRef
	Count Expr // nil for a scalar field; the symbolic/const count otherwise
	Name  string
}

// StructDecl declares a struct or header type.
type StructDecl struct {
	Pos      Pos
	IsHeader bool
	Name     string
	Fields   []Field
}

// RegisterDecl declares a (possibly elastic) register array:
// register<bit<32>>[cols][rows] cms;   — rows arrays of cols cells
// register<bit<64>>[kv_items] kv;     — one array of kv_items cells
// register<bit<32>>(1024) cms_0;      — P4_16's form of the second
type RegisterDecl struct {
	Pos    Pos
	Stages []int // @stage(n,…): the stages a compiled program places it in
	Elem   TypeRef
	Cells  Expr // cells per array instance
	Count  Expr // number of array instances; nil means 1
	Name   string
}

// Param is a formal parameter of an action or control.
type Param struct {
	Pos  Pos
	Type TypeRef
	Name string
}

// ActionDecl declares an action. Indexed actions carry a compile-time
// iteration parameter: action incr()[int i] { ... }. Annotations (e.g.
// @commutative) precede the action keyword, as does the @stage(n) of a
// compiled program.
type ActionDecl struct {
	Pos         Pos
	Annotations []string
	Stages      []int
	Name        string
	Params      []Param
	IndexParam  string // "" when the action is not indexed
	Body        *Block
}

// TableDecl declares a (simplified) match-action table. Tables are
// inelastic resource consumers in this subset: they reserve match
// memory and invoke actions.
type TableDecl struct {
	Pos     Pos
	Stages  []int // @stage(n) of a compiled program
	Name    string
	Keys    []Expr
	Actions []string
	Size    Expr // nil means target default
}

// ControlDecl declares a control block with local declarations and an
// apply body.
type ControlDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Locals []Decl // nested actions and tables
	Apply  *Block
}

func (d *SymbolicDecl) declNode() {}
func (d *AssumeDecl) declNode()   {}
func (d *OptimizeDecl) declNode() {}
func (d *ConstDecl) declNode()    {}
func (d *StructDecl) declNode()   {}
func (d *RegisterDecl) declNode() {}
func (d *ActionDecl) declNode()   {}
func (d *TableDecl) declNode()    {}
func (d *ControlDecl) declNode()  {}

func (d *SymbolicDecl) GetPos() Pos { return d.Pos }
func (d *AssumeDecl) GetPos() Pos   { return d.Pos }
func (d *OptimizeDecl) GetPos() Pos { return d.Pos }
func (d *ConstDecl) GetPos() Pos    { return d.Pos }
func (d *StructDecl) GetPos() Pos   { return d.Pos }
func (d *RegisterDecl) GetPos() Pos { return d.Pos }
func (d *ActionDecl) GetPos() Pos   { return d.Pos }
func (d *TableDecl) GetPos() Pos    { return d.Pos }
func (d *ControlDecl) GetPos() Pos  { return d.Pos }

// Stmt is any statement.
type Stmt interface {
	stmtNode()
	GetPos() Pos
}

// Block is a braced statement list.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// AssignStmt is "lvalue = expr;".
type AssignStmt struct {
	Pos Pos
	LHS *Ref
	RHS Expr
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *Block
	Else *Block // nil if absent
}

// ForStmt is the P4All symbolic loop: for (i < bound) { ... }.
type ForStmt struct {
	Pos   Pos
	Var   string
	Bound Expr
	Body  *Block
}

// CallStmt invokes an action, optionally at a loop index: incr()[i];
type CallStmt struct {
	Pos   Pos
	Name  string
	Args  []Expr
	Index Expr // nil for non-indexed calls
}

// ApplyStmt invokes a control or table: hash_inc.apply(...);
type ApplyStmt struct {
	Pos    Pos
	Target string
	Args   []Expr
}

func (s *Block) stmtNode()      {}
func (s *AssignStmt) stmtNode() {}
func (s *IfStmt) stmtNode()     {}
func (s *ForStmt) stmtNode()    {}
func (s *CallStmt) stmtNode()   {}
func (s *ApplyStmt) stmtNode()  {}

func (s *Block) GetPos() Pos      { return s.Pos }
func (s *AssignStmt) GetPos() Pos { return s.Pos }
func (s *IfStmt) GetPos() Pos     { return s.Pos }
func (s *ForStmt) GetPos() Pos    { return s.Pos }
func (s *CallStmt) GetPos() Pos   { return s.Pos }
func (s *ApplyStmt) GetPos() Pos  { return s.Pos }

// Expr is any expression.
type Expr interface {
	exprNode()
	GetPos() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos   Pos
	Value int64
}

// FloatLit is a decimal literal, valid only in utility functions and
// assume predicates (weights like 0.4).
type FloatLit struct {
	Pos   Pos
	Value float64
}

// BoolLit is true or false.
type BoolLit struct {
	Pos   Pos
	Value bool
}

// Seg is one segment of a reference path with optional indexing:
// cms[i][idx] is one segment with two indexes; meta.count[i] is two
// segments, the second indexed once.
type Seg struct {
	Name    string
	Indexes []Expr
}

// Ref is a possibly-indexed path reference: hdr.ipv4.src,
// meta.count[i], cms[i][meta.index[i]]. Resolve binds it once, and
// every later stage reads the binding: Reg or Field is the register or
// struct field it names, Inst the instance an elastic one selects, and
// Iter marks a bare name that is the iteration.
type Ref struct {
	Pos   Pos
	Segs  []Seg
	Reg   *Register
	Field *MetaField
	// Inst is the instance an elastic register or field reference
	// selects: IterInst for the scope's iteration, else its instance
	// index folded to a constant.
	Inst int64
	// Iter marks a bare name that is the scope's iteration: the
	// action's index parameter in a body, the innermost loop variable
	// in a guard, whatever its name.
	Iter bool
}

// IterInst is the Inst of a reference whose instance is the iteration.
const IterInst int64 = -1

// InstAt returns the instance r selects in iteration iter.
func (r *Ref) InstAt(iter int) int64 {
	if r.Inst == IterInst {
		return int64(iter)
	}
	return r.Inst
}

// Binary is a binary operation; Op is one of the operator token kinds.
type Binary struct {
	Pos  Pos
	Op   Kind
	X, Y Expr
}

// Unary is a prefix operation (MINUS or NOT).
type Unary struct {
	Pos Pos
	Op  Kind
	X   Expr
}

// CallExpr is a builtin function call in expression position:
// hash(f, i), min(a, b), max(a, b).
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

func (e *IntLit) exprNode()   {}
func (e *FloatLit) exprNode() {}
func (e *BoolLit) exprNode()  {}
func (e *Ref) exprNode()      {}
func (e *Binary) exprNode()   {}
func (e *Unary) exprNode()    {}
func (e *CallExpr) exprNode() {}

func (e *IntLit) GetPos() Pos   { return e.Pos }
func (e *FloatLit) GetPos() Pos { return e.Pos }
func (e *BoolLit) GetPos() Pos  { return e.Pos }
func (e *Ref) GetPos() Pos      { return e.Pos }
func (e *Binary) GetPos() Pos   { return e.Pos }
func (e *Unary) GetPos() Pos    { return e.Pos }
func (e *CallExpr) GetPos() Pos { return e.Pos }

// Base returns the first segment name of the reference.
func (r *Ref) Base() string {
	if len(r.Segs) == 0 {
		return ""
	}
	return r.Segs[0].Name
}

// IsSimpleIdent reports whether r is a bare unindexed identifier.
func (r *Ref) IsSimpleIdent() bool {
	return len(r.Segs) == 1 && len(r.Segs[0].Indexes) == 0
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
