package tv

import (
	"fmt"
	"math/bits"

	"p4all/internal/lang"
	"p4all/internal/sem"
)

// This file implements the symbolic value domain: a hash-consed
// expression DAG over 64-bit values, folding constants with the
// arithmetic the reference interpreter uses (internal/sem). Nodes are interned, so
// structural equality is pointer equality — the source-side and
// target-side evaluations share one table, and an equivalence
// obligation discharges exactly when both sides reach the same node.
//
// Register state is modeled as McCarthy arrays: an opaque initial
// array per register instance, functional stores, and selects that
// resolve through the store chain when indices are syntactically equal
// or provably distinct constants.

type nodeKind uint8

const (
	kConst  nodeKind = iota // concrete 64-bit value
	kIn                     // packet input variable (raw, unconstrained)
	kMask                   // X truncated to `width` bits
	kUn                     // unary MINUS / NOT
	kBin                    // binary arithmetic or comparison
	kCall                   // hash/min/max builtin
	kArrial                 // initial register array contents
	kStore                  // functional array store (arr, idx, val)
	kSelect                 // array read (arr, idx), width = register width
)

// node is one interned symbolic value. lo/hi is a sound unsigned
// interval for every concrete instantiation of the node, used to
// discharge branch conditions without forking ("interval pruning").
type node struct {
	id    int32
	kind  nodeKind
	op    lang.Kind // kUn, kBin
	name  string    // kIn variable, kCall builtin, kArrial "reg/inst"
	val   uint64    // kConst
	width int       // kMask truncation width, kSelect register width
	args  [3]*node  // operands; unused trailing entries are nil
	lo    uint64
	hi    uint64

	// The branch decision recorded for this condition on the machine's
	// current path, and its index among the path's decisions: both are
	// meaningful only while stamp equals the machine's run generation
	// (see evalCtx.decide; a backtrack that forgets the decision clears
	// stamp).
	stamp uint64
	taken bool
	dec   int32
}

func (n *node) isConst() bool { return n.kind == kConst }

// nodeKey is the structural identity of a non-constant node: every
// field that distinguishes two values, in a fixed-size comparable
// form, so a lookup hashes a few words and allocates nothing. Names
// and operands are their interned ids plus one; zero is the empty name
// and the unused operand.
type nodeKey struct {
	kind  nodeKind
	op    lang.Kind
	width int
	name  int32
	args  [3]int32
}

// symtab interns nodes: the table is probed before a node is
// allocated, so only the first sight of a value costs memory.
type symtab struct {
	consts map[uint64]*node
	nodes  map[nodeKey]*node
	names  map[string]int32
	seq    int // nodes interned so far
}

func newSymtab() *symtab {
	return &symtab{
		consts: make(map[uint64]*node, 64),
		nodes:  make(map[nodeKey]*node, 256),
		names:  make(map[string]int32, 16),
	}
}

// alloc returns a fresh node carrying the next id.
func (t *symtab) alloc() *node {
	n := &node{id: int32(t.seq)}
	t.seq++
	return n
}

// intern returns the node of a non-constant value, creating it on
// first sight. Unused operands are nil.
func (t *symtab) intern(kind nodeKind, op lang.Kind, width int, name string, a0, a1, a2 *node) *node {
	k := nodeKey{kind: kind, op: op, width: width}
	if name != "" {
		id, ok := t.names[name]
		if !ok {
			id = int32(len(t.names)) + 1
			t.names[name] = id
		}
		k.name = id
	}
	for i, a := range [3]*node{a0, a1, a2} {
		if a != nil {
			k.args[i] = a.id + 1
		}
	}
	if have, ok := t.nodes[k]; ok {
		return have
	}
	n := t.alloc()
	n.kind, n.op, n.width, n.name = kind, op, width, name
	n.args = [3]*node{a0, a1, a2}
	n.lo, n.hi = interval(n)
	t.nodes[k] = n
	return n
}

func (t *symtab) constant(v uint64) *node {
	if have, ok := t.consts[v]; ok {
		return have
	}
	n := t.alloc()
	n.kind, n.val = kConst, v
	n.lo, n.hi = interval(n)
	t.consts[v] = n
	return n
}

func (t *symtab) boolConst(b bool) *node {
	if b {
		return t.constant(1)
	}
	return t.constant(0)
}

// in returns the packet input variable for a header key.
func (t *symtab) in(name string) *node {
	return t.intern(kIn, 0, 0, name, nil, nil, nil)
}

// mask truncates x to w bits. The node is elided when the value
// provably fits (interval inside the mask), which keeps equal values
// on the two sides syntactically equal regardless of how many
// redundant masks each applied.
func (t *symtab) mask(x *node, w int) *node {
	if w <= 0 || w >= 64 {
		return x
	}
	if x.isConst() {
		return t.constant(sem.MaskTo(x.val, w))
	}
	if x.hi <= sem.WidthMask(w) {
		return x
	}
	return t.intern(kMask, 0, w, "", x, nil, nil)
}

// neg is the unary MINUS before masking.
func (t *symtab) neg(x *node) *node {
	if x.isConst() {
		return t.constant(-x.val)
	}
	return t.intern(kUn, lang.MINUS, 0, "", x, nil, nil)
}

// not is the boolean negation (yields 0/1).
func (t *symtab) not(x *node) *node {
	if x.isConst() {
		return t.boolConst(x.val == 0)
	}
	if x.lo >= 1 {
		return t.constant(0)
	}
	if x.hi == 0 {
		return t.constant(1)
	}
	return t.intern(kUn, lang.NOT, 0, "", x, nil, nil)
}

// bin builds a raw (unmasked) binary node. The caller must rule out
// zero divisors first and apply mask() for the wrapping operators.
func (t *symtab) bin(op lang.Kind, x, y *node) *node {
	if x.isConst() && y.isConst() {
		if v, err := sem.BinOp(op, x.val, y.val); err == nil {
			return t.constant(v)
		}
	}
	n := t.intern(kBin, op, 0, "", x, y, nil)
	// Comparisons may still fold through the operand intervals.
	if n.lo == n.hi {
		return t.constant(n.lo)
	}
	return n
}

// boolish converts a value to the 0/1 the interpreter's boolean
// connectives produce once the short-circuit operand is decided.
func (t *symtab) boolish(x *node) *node {
	if x.isConst() {
		return t.boolConst(x.val != 0)
	}
	if x.hi <= 1 {
		return x
	}
	return t.bin(lang.NE, x, t.constant(0))
}

// call builds a builtin call node (hash/min/max with two arguments).
func (t *symtab) call(name string, x, y *node) *node {
	if x.isConst() && y.isConst() {
		return t.constant(sem.Call(name, x.val, y.val))
	}
	return t.intern(kCall, 0, 0, name, x, y, nil)
}

// arrInit is the opaque initial contents of one register instance.
func (t *symtab) arrInit(reg string, inst int64) *node {
	return t.intern(kArrial, 0, 0, fmt.Sprintf("%s/%d", reg, inst), nil, nil, nil)
}

// store is a functional array update.
func (t *symtab) store(arr, idx, val *node) *node {
	return t.intern(kStore, 0, 0, "", arr, idx, val)
}

// sel reads a cell, resolving through the store chain: an identical
// index hits the stored value; provably distinct constant indices are
// skipped; anything else leaves a symbolic select over the remaining
// chain. width is the register element width (cells hold masked
// values, which bounds the result interval).
func (t *symtab) sel(arr, idx *node, width int) *node {
	a := arr
	for {
		if a.kind != kStore {
			break
		}
		sIdx, sVal := a.args[1], a.args[2]
		if sIdx == idx {
			return sVal
		}
		if sIdx.isConst() && idx.isConst() && sIdx.val != idx.val {
			a = a.args[0]
			continue
		}
		break
	}
	return t.intern(kSelect, 0, width, "", a, idx, nil)
}

// wrapCell applies the simulator's cell wrap (cell % len(store)) —
// elided when the index provably fits, so both sides canonicalize the
// common in-range case identically.
func (t *symtab) wrapCell(cell *node, cells int64) *node {
	if cells <= 0 {
		return cell
	}
	if cell.isConst() {
		if cell.val >= uint64(cells) {
			return t.constant(cell.val % uint64(cells))
		}
		return cell
	}
	if cell.hi < uint64(cells) {
		return cell
	}
	return t.bin(lang.PCT, cell, t.constant(uint64(cells)))
}

// interval computes a sound unsigned range for a node's value. It is
// evaluated once at intern time (children are already interned).
func interval(n *node) (uint64, uint64) {
	full := func() (uint64, uint64) { return 0, ^uint64(0) }
	switch n.kind {
	case kConst:
		return n.val, n.val
	case kIn, kArrial, kStore:
		return full()
	case kMask:
		x := n.args[0]
		m := sem.WidthMask(n.width)
		if x.hi <= m {
			return x.lo, x.hi
		}
		return 0, m
	case kSelect:
		// Cells only ever hold width-masked values: writes mask, and
		// snapshot restore preserves shapes from a pipeline that
		// masked. See docs/TRANSLATION_VALIDATION.md for the caveat on
		// externally seeded out-of-width state.
		return 0, sem.WidthMask(n.width)
	case kUn:
		if n.op == lang.NOT {
			return 0, 1
		}
		return full()
	case kCall:
		x, y := n.args[0], n.args[1]
		switch n.name {
		case "min":
			return min(x.lo, y.lo), min(x.hi, y.hi)
		case "max":
			return max(x.lo, y.lo), max(x.hi, y.hi)
		}
		return full()
	case kBin:
		x, y := n.args[0], n.args[1]
		switch n.op {
		case lang.PLUS:
			lo, c1 := bits.Add64(x.lo, y.lo, 0)
			hi, c2 := bits.Add64(x.hi, y.hi, 0)
			if c1 != 0 || c2 != 0 {
				return full()
			}
			return lo, hi
		case lang.MINUS:
			if x.lo >= y.hi {
				return x.lo - y.hi, x.hi - y.lo
			}
			return full()
		case lang.STAR:
			h1, lo := bits.Mul64(x.lo, y.lo)
			h2, hi := bits.Mul64(x.hi, y.hi)
			if h1 != 0 || h2 != 0 {
				return full()
			}
			return lo, hi
		case lang.SLASH:
			if y.lo == 0 {
				return 0, x.hi
			}
			return x.lo / y.hi, x.hi / y.lo
		case lang.PCT:
			if y.hi == 0 {
				return full()
			}
			return 0, min(x.hi, y.hi-1)
		case lang.LT:
			return cmpInterval(x.hi < y.lo, x.lo >= y.hi)
		case lang.LE:
			return cmpInterval(x.hi <= y.lo, x.lo > y.hi)
		case lang.GT:
			return cmpInterval(x.lo > y.hi, x.hi <= y.lo)
		case lang.GE:
			return cmpInterval(x.lo >= y.hi, x.hi < y.lo)
		case lang.EQ:
			return cmpInterval(x.lo == x.hi && y.lo == y.hi && x.lo == y.lo, x.hi < y.lo || y.hi < x.lo)
		case lang.NE:
			return cmpInterval(x.hi < y.lo || y.hi < x.lo, x.lo == x.hi && y.lo == y.hi && x.lo == y.lo)
		}
		return full()
	}
	return full()
}

// cmpInterval maps "provably true"/"provably false" to a 0/1 range.
func cmpInterval(alwaysTrue, alwaysFalse bool) (uint64, uint64) {
	switch {
	case alwaysTrue:
		return 1, 1
	case alwaysFalse:
		return 0, 0
	default:
		return 0, 1
	}
}

// fnv1a hashes a string for the deterministic concrete-search input
// derivation.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// nodeString renders a node for failure details (bounded depth).
func nodeString(n *node, depth int) string {
	if n == nil {
		return "?"
	}
	if depth <= 0 {
		return "..."
	}
	switch n.kind {
	case kConst:
		return fmt.Sprintf("%d", n.val)
	case kIn:
		return "in(" + n.name + ")"
	case kMask:
		return fmt.Sprintf("mask%d(%s)", n.width, nodeString(n.args[0], depth-1))
	case kUn:
		return lang.KindText(n.op) + nodeString(n.args[0], depth-1)
	case kBin:
		return fmt.Sprintf("(%s %s %s)", nodeString(n.args[0], depth-1), lang.KindText(n.op), nodeString(n.args[1], depth-1))
	case kCall:
		return fmt.Sprintf("%s(%s, %s)", n.name, nodeString(n.args[0], depth-1), nodeString(n.args[1], depth-1))
	case kArrial:
		return "init(" + n.name + ")"
	case kStore:
		return fmt.Sprintf("store(%s, %s, %s)", nodeString(n.args[0], depth-1), nodeString(n.args[1], depth-1), nodeString(n.args[2], depth-1))
	case kSelect:
		return fmt.Sprintf("sel(%s, %s)", nodeString(n.args[0], depth-1), nodeString(n.args[1], depth-1))
	}
	return "?"
}
