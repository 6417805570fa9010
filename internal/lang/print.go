package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a program back to P4All source. The output reparses to
// an equivalent AST (the property the round-trip tests rely on).
func Print(p *Program) string {
	var pr printer
	for i, d := range p.Decls {
		if i > 0 {
			pr.nl()
		}
		pr.decl(d)
	}
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var pr printer
	pr.expr(e, 0)
	return pr.b.String()
}

type printer struct {
	b     strings.Builder
	depth int
}

func (pr *printer) indent() {
	for i := 0; i < pr.depth; i++ {
		pr.b.WriteString("    ")
	}
}

func (pr *printer) nl() { pr.b.WriteByte('\n') }

func (pr *printer) line(format string, args ...interface{}) {
	pr.indent()
	fmt.Fprintf(&pr.b, format, args...)
	pr.nl()
}

func (pr *printer) decl(d Decl) {
	switch d := d.(type) {
	case *SymbolicDecl:
		pr.line("symbolic int %s;", d.Name)
	case *AssumeDecl:
		pr.line("assume %s;", PrintExpr(d.Cond))
	case *OptimizeDecl:
		pr.line("optimize %s;", PrintExpr(d.Util))
	case *ConstDecl:
		pr.line("const int %s = %s;", d.Name, PrintExpr(d.Value))
	case *StructDecl:
		kw := "struct"
		if d.IsHeader {
			kw = "header"
		}
		pr.line("%s %s {", kw, d.Name)
		pr.depth++
		for _, f := range d.Fields {
			if f.Count != nil {
				pr.line("%s[%s] %s;", f.Type, PrintExpr(f.Count), f.Name)
			} else {
				pr.line("%s %s;", f.Type, f.Name)
			}
		}
		pr.depth--
		pr.line("}")
	case *RegisterDecl:
		if d.Count != nil {
			pr.line("register<%s>[%s][%s] %s;", d.Elem, PrintExpr(d.Cells), PrintExpr(d.Count), d.Name)
		} else {
			pr.line("register<%s>[%s] %s;", d.Elem, PrintExpr(d.Cells), d.Name)
		}
	case *ActionDecl:
		for _, a := range d.Annotations {
			pr.line("@%s", a)
		}
		idx := ""
		if d.IndexParam != "" {
			idx = fmt.Sprintf("[int %s]", d.IndexParam)
		}
		pr.indent()
		fmt.Fprintf(&pr.b, "action %s(%s)%s ", d.Name, params(d.Params), idx)
		pr.block(d.Body)
		pr.nl()
	case *TableDecl:
		pr.line("table %s {", d.Name)
		pr.depth++
		if len(d.Keys) > 0 {
			pr.indent()
			pr.b.WriteString("key = {")
			for _, k := range d.Keys {
				pr.b.WriteString(" " + PrintExpr(k) + ";")
			}
			pr.b.WriteString(" }")
			pr.nl()
		}
		if len(d.Actions) > 0 {
			pr.indent()
			pr.b.WriteString("actions = {")
			for _, a := range d.Actions {
				pr.b.WriteString(" " + a + ";")
			}
			pr.b.WriteString(" }")
			pr.nl()
		}
		if d.Size != nil {
			pr.line("size = %s;", PrintExpr(d.Size))
		}
		pr.depth--
		pr.line("}")
	case *ControlDecl:
		pr.indent()
		if len(d.Params) > 0 {
			fmt.Fprintf(&pr.b, "control %s(%s) {", d.Name, params(d.Params))
		} else {
			fmt.Fprintf(&pr.b, "control %s {", d.Name)
		}
		pr.nl()
		pr.depth++
		for _, l := range d.Locals {
			pr.decl(l)
		}
		pr.indent()
		pr.b.WriteString("apply ")
		pr.block(d.Apply)
		pr.nl()
		pr.depth--
		pr.line("}")
	default:
		panic(fmt.Sprintf("lang: unknown decl %T", d))
	}
}

func params(ps []Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Type.String() + " " + p.Name
	}
	return strings.Join(parts, ", ")
}

func (pr *printer) block(b *Block) {
	pr.b.WriteString("{")
	pr.nl()
	pr.depth++
	for _, s := range b.Stmts {
		pr.stmt(s)
	}
	pr.depth--
	pr.indent()
	pr.b.WriteString("}")
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		pr.indent()
		pr.block(s)
		pr.nl()
	case *AssignStmt:
		pr.line("%s = %s;", PrintExpr(s.LHS), PrintExpr(s.RHS))
	case *IfStmt:
		pr.indent()
		fmt.Fprintf(&pr.b, "if (%s) ", PrintExpr(s.Cond))
		pr.block(s.Then)
		if s.Else != nil {
			pr.b.WriteString(" else ")
			pr.block(s.Else)
		}
		pr.nl()
	case *ForStmt:
		pr.indent()
		fmt.Fprintf(&pr.b, "for (%s < %s) ", s.Var, PrintExpr(s.Bound))
		pr.block(s.Body)
		pr.nl()
	case *CallStmt:
		idx := ""
		if s.Index != nil {
			idx = "[" + PrintExpr(s.Index) + "]"
		}
		pr.line("%s(%s)%s;", s.Name, exprs(s.Args), idx)
	case *ApplyStmt:
		pr.line("%s.apply(%s);", s.Target, exprs(s.Args))
	default:
		panic(fmt.Sprintf("lang: unknown stmt %T", s))
	}
}

func exprs(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = PrintExpr(e)
	}
	return strings.Join(parts, ", ")
}

// expr prints with minimal parentheses; parent is the binding power of
// the enclosing operator.
func (pr *printer) expr(e Expr, parent int) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(&pr.b, "%d", e.Value)
	case *FloatLit:
		s := strconv.FormatFloat(e.Value, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		pr.b.WriteString(s)
	case *BoolLit:
		fmt.Fprintf(&pr.b, "%t", e.Value)
	case *Ref:
		for i, s := range e.Segs {
			if i > 0 {
				pr.b.WriteByte('.')
			}
			pr.b.WriteString(s.Name)
			for _, idx := range s.Indexes {
				pr.b.WriteByte('[')
				pr.expr(idx, 0)
				pr.b.WriteByte(']')
			}
		}
	case *CallExpr:
		pr.b.WriteString(e.Name)
		pr.b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				pr.b.WriteString(", ")
			}
			pr.expr(a, 0)
		}
		pr.b.WriteByte(')')
	case *Unary:
		pr.b.WriteString(kindNames[e.Op])
		pr.expr(e.X, 100)
	case *Binary:
		prec := binPrec(e.Op)
		if prec < parent {
			pr.b.WriteByte('(')
		}
		pr.expr(e.X, prec)
		fmt.Fprintf(&pr.b, " %s ", kindNames[e.Op])
		pr.expr(e.Y, prec+1)
		if prec < parent {
			pr.b.WriteByte(')')
		}
	default:
		panic(fmt.Sprintf("lang: unknown expr %T", e))
	}
}

func binPrec(op Kind) int {
	switch op {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NE:
		return 3
	case LT, LE, GT, GE:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PCT:
		return 6
	default:
		return 0
	}
}
