package ilp

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Expr is a linear expression: a sum of coefficient·variable terms plus
// a constant. The zero Expr is an empty expression ready to use, but
// expressions built with the fluent helpers share no state, so they may
// be copied freely once constructed.
type Expr struct {
	coef  map[Var]float64
	konst float64
}

// NewExpr returns an empty linear expression.
func NewExpr() Expr { return Expr{coef: make(map[Var]float64)} }

// Term returns the expression c·v.
func Term(v Var, c float64) Expr {
	e := NewExpr()
	e.coef[v] = c
	return e
}

// Const returns the constant expression k.
func Const(k float64) Expr {
	e := NewExpr()
	e.konst = k
	return e
}

// Sum returns the sum of the given variables, each with coefficient 1.
func Sum(vars ...Var) Expr {
	e := NewExpr()
	for _, v := range vars {
		e.coef[v] += 1
	}
	return e
}

func (e *Expr) ensure() {
	if e.coef == nil {
		e.coef = make(map[Var]float64)
	}
}

// Add accumulates c·v into e and returns e for chaining.
func (e *Expr) Add(v Var, c float64) *Expr {
	e.ensure()
	e.coef[v] += c
	if e.coef[v] == 0 {
		delete(e.coef, v)
	}
	return e
}

// AddExpr accumulates scale·other into e and returns e.
func (e *Expr) AddExpr(other Expr, scale float64) *Expr {
	e.ensure()
	for v, c := range other.coef {
		e.coef[v] += scale * c
		if e.coef[v] == 0 {
			delete(e.coef, v)
		}
	}
	e.konst += scale * other.konst
	return e
}

// Terms calls fn for each variable term in e in ascending Var order.
func (e Expr) Terms(fn func(v Var, c float64)) {
	for _, v := range e.vars() {
		fn(v, e.coef[v])
	}
}

// vars returns e's variables in ascending order.
func (e Expr) vars() []Var {
	vars := make([]Var, 0, len(e.coef))
	for v := range e.coef {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	return vars
}

// Len returns the number of variable terms in e.
func (e Expr) Len() int { return len(e.coef) }

// Eval evaluates e under the given assignment (indexed by Var): the
// constant plus the terms in ascending Var order, so the same assignment
// always gives the same bits.
func (e Expr) Eval(values []float64) float64 {
	sum := e.konst
	for _, v := range e.vars() {
		sum += e.coef[v] * values[v]
	}
	return sum
}

func (e Expr) clone() Expr {
	out := Expr{coef: make(map[Var]float64, len(e.coef)), konst: e.konst}
	for v, c := range e.coef {
		out.coef[v] = c
	}
	return out
}

func (e Expr) format(m *Model) string {
	if len(e.coef) == 0 && e.konst == 0 {
		return "0"
	}
	var parts []string
	e.Terms(func(v Var, c float64) {
		name := fmt.Sprintf("x%d", int(v))
		if m != nil && int(v) < len(m.vars) && m.vars[v].name != "" {
			name = m.vars[v].name
		}
		switch {
		case c == 1:
			parts = append(parts, name)
		case c == -1:
			parts = append(parts, "-"+name)
		default:
			parts = append(parts, fmt.Sprintf("%g*%s", c, name))
		}
	})
	if e.konst != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%g", e.konst))
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}

// String renders the expression with generic variable names.
func (e Expr) String() string { return e.format(nil) }

// almostEqual reports whether a and b agree within tol.
func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}
