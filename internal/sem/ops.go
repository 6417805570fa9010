package sem

import (
	"errors"
	"fmt"
	"strconv"

	"p4all/internal/lang"
	"p4all/internal/structures"
)

// WidthMask returns the truncation mask for a field width. Widths of
// 64 or more (and non-positive widths, defensively) leave the full
// 64-bit value intact.
func WidthMask(bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(bits)) - 1
}

// MaskTo wraps a value at the given bit width; width 0 means
// "unconstrained" (compile-time names and literals) and is a no-op.
func MaskTo(v uint64, bits int) uint64 {
	return v & WidthMask(bits)
}

// CombineWidth merges the widths of two operands: an unconstrained
// operand (width 0) adopts the other's width; two constrained operands
// take the wider, matching P4's implicit widening of mixed-width
// arithmetic.
func CombineWidth(a, b int) int {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return max(a, b)
}

// opWidth is the width a binary operator's result wraps at: the
// combined operand width for arithmetic, 0 for comparisons and boolean
// connectives, which yield 0 or 1.
func opWidth(op lang.Kind, wx, wy int) int {
	switch op {
	case lang.PLUS, lang.MINUS, lang.STAR, lang.SLASH, lang.PCT:
		return CombineWidth(wx, wy)
	}
	return 0
}

// callWidth is the width a builtin's result wraps at: 64 for hash, the
// combined argument width for min and max.
func callWidth(name string, wx, wy int) int {
	if name == "hash" {
		return 64
	}
	return CombineWidth(wx, wy)
}

// The abort reasons of a zero divisor.
var (
	errDivByZero = errors.New("division by zero")
	errModByZero = errors.New("modulo by zero")
)

// DivisorErr is the abort a zero divisor raises under op (SLASH or PCT).
func DivisorErr(op lang.Kind) error {
	if op == lang.PCT {
		return errModByZero
	}
	return errDivByZero
}

// BinOp applies a binary operator to two 64-bit values, before any
// width wrap. Comparisons and connectives yield 0 or 1. A zero divisor
// is DivisorErr(op).
func BinOp(op lang.Kind, x, y uint64) (uint64, error) {
	switch op {
	case lang.PLUS:
		return x + y, nil
	case lang.MINUS:
		return x - y, nil
	case lang.STAR:
		return x * y, nil
	case lang.SLASH, lang.PCT:
		if y == 0 {
			return 0, DivisorErr(op)
		}
		if op == lang.SLASH {
			return x / y, nil
		}
		return x % y, nil
	case lang.LT:
		return b2u(x < y), nil
	case lang.LE:
		return b2u(x <= y), nil
	case lang.GT:
		return b2u(x > y), nil
	case lang.GE:
		return b2u(x >= y), nil
	case lang.EQ:
		return b2u(x == y), nil
	case lang.NE:
		return b2u(x != y), nil
	case lang.AND:
		return b2u(x != 0 && y != 0), nil
	case lang.OR:
		return b2u(x != 0 || y != 0), nil
	}
	return 0, fmt.Errorf("unsupported operator %s", op)
}

// Call applies a builtin to its two arguments. The resolver admits
// only hash, min and max, each with two arguments.
func Call(name string, x, y uint64) uint64 {
	switch name {
	case "hash":
		return structures.Hash(x, y)
	case "min":
		return min(x, y)
	}
	return max(x, y)
}

// errNotConst marks an expression Fold cannot evaluate at compile time.
var errNotConst = errors.New("not a compile-time constant")

// Fold evaluates a compile-time-constant expression: literals, the
// simple names name resolves, and negation, arithmetic and comparisons
// over them, wrapped as the walker wraps them. It returns the value and
// the width it wraps at. Anything else (&& and ||, which the walker
// short-circuits, !, calls, field and register reads) is errNotConst; a
// simple name that name does not resolve, or a zero divisor, is an
// error of its own.
func Fold(e lang.Expr, name func(*lang.Ref) (uint64, bool)) (uint64, int, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return uint64(e.Value), 0, nil
	case *lang.BoolLit:
		return b2u(e.Value), 0, nil
	case *lang.Ref:
		if !e.IsSimpleIdent() {
			return 0, 0, errNotConst
		}
		if v, ok := name(e); ok {
			return v, 0, nil
		}
		return 0, 0, fmt.Errorf("unknown name %s", e.Base())
	case *lang.Unary:
		if e.Op != lang.MINUS {
			return 0, 0, errNotConst
		}
		x, w, err := Fold(e.X, name)
		return MaskTo(-x, w), w, err
	case *lang.Binary:
		if e.Op == lang.AND || e.Op == lang.OR {
			return 0, 0, errNotConst
		}
		x, wx, err := Fold(e.X, name)
		if err != nil {
			return 0, 0, err
		}
		y, wy, err := Fold(e.Y, name)
		if err != nil {
			return 0, 0, err
		}
		v, err := BinOp(e.Op, x, y)
		if err != nil {
			return 0, 0, fmt.Errorf("constant fold: %w", err)
		}
		w := opWidth(e.Op, wx, wy)
		return MaskTo(v, w), w, nil
	}
	return 0, 0, errNotConst
}

// InstKey names one instance of an elastic field or register,
// "name@idx", built without fmt: it sits on per-access paths.
func InstKey(name string, idx uint64) string {
	buf := make([]byte, 0, len(name)+21)
	buf = append(buf, name...)
	buf = append(buf, '@')
	buf = strconv.AppendUint(buf, idx, 10)
	return string(buf)
}

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}
