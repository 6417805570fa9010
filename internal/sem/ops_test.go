package sem

import (
	"testing"

	"p4all/internal/lang"
	"p4all/internal/structures"
)

func TestWidthMaskTable(t *testing.T) {
	cases := []struct {
		bits int
		want uint64
	}{
		{-1, ^uint64(0)},
		{0, ^uint64(0)},
		{1, 1},
		{8, 0xFF},
		{16, 0xFFFF},
		{32, 0xFFFFFFFF},
		{63, (1 << 63) - 1},
		{64, ^uint64(0)},
		{65, ^uint64(0)},
	}
	for _, c := range cases {
		if got := WidthMask(c.bits); got != c.want {
			t.Errorf("WidthMask(%d) = %#x, want %#x", c.bits, got, c.want)
		}
	}
}

func TestCombineWidth(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 8, 8},
		{8, 0, 8},
		{8, 16, 16},
		{32, 8, 32},
		{64, 32, 64},
	}
	for _, c := range cases {
		if got := CombineWidth(c.a, c.b); got != c.want {
			t.Errorf("CombineWidth(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestBinOpAndCall pins the concrete arithmetic every executor shares:
// wraparound, 0/1 comparisons and connectives, the zero-divisor aborts,
// and the builtins.
func TestBinOpAndCall(t *testing.T) {
	cases := []struct {
		op   lang.Kind
		x, y uint64
		want uint64
	}{
		{lang.PLUS, ^uint64(0), 2, 1},
		{lang.MINUS, 1, 2, ^uint64(0)},
		{lang.STAR, 1 << 63, 2, 0},
		{lang.SLASH, 7, 2, 3},
		{lang.PCT, 7, 2, 1},
		{lang.LT, 1, 2, 1},
		{lang.LE, 2, 2, 1},
		{lang.GT, 1, 2, 0},
		{lang.GE, 1, 2, 0},
		{lang.EQ, 3, 3, 1},
		{lang.NE, 3, 3, 0},
		{lang.AND, 5, 0, 0},
		{lang.OR, 0, 5, 1},
	}
	for _, c := range cases {
		if got, err := BinOp(c.op, c.x, c.y); err != nil || got != c.want {
			t.Errorf("BinOp(%s, %d, %d) = %d, %v; want %d", c.op, c.x, c.y, got, err, c.want)
		}
	}
	if _, err := BinOp(lang.SLASH, 1, 0); err != errDivByZero || err.Error() != "division by zero" {
		t.Errorf("x / 0: %v", err)
	}
	if _, err := BinOp(lang.PCT, 1, 0); err != errModByZero || err.Error() != "modulo by zero" {
		t.Errorf("x %% 0: %v", err)
	}
	if got := Call("hash", 3, 4); got != structures.Hash(3, 4) {
		t.Errorf("hash = %d", got)
	}
	if Call("min", 3, 4) != 3 || Call("max", 3, 4) != 4 {
		t.Error("min/max")
	}
}

func TestWidthsOfResults(t *testing.T) {
	if opWidth(lang.PLUS, 8, 16) != 16 || opWidth(lang.LT, 8, 16) != 0 || opWidth(lang.AND, 8, 8) != 0 {
		t.Error("opWidth")
	}
	if callWidth("hash", 8, 8) != 64 || callWidth("min", 0, 8) != 8 {
		t.Error("callWidth")
	}
}
