// Package unroll computes upper bounds for the symbolic values that
// govern loop iteration counts (§4.2 of the paper). For each symbolic
// v the compiler unrolls the loops bounded by v for increasing K,
// rebuilding the dependency graph G_v, until (1) the longest simple
// path exceeds the stage count S, or (2) the ALU demand exceeds the
// target total, after which the last fitting K is v's upper bound
// (Figure 9). Assume statements and a per-stage memory criterion (an
// extension the paper's §4.2 leaves implicit) can tighten the bound.
package unroll

import (
	"fmt"
	"math"

	"p4all/internal/dep"
	"p4all/internal/lang"
	"p4all/internal/pisa"
)

// Reason explains which criterion fixed a bound.
type Reason string

const (
	// ReasonPath: the longest simple path exceeded the stage count.
	ReasonPath Reason = "path"
	// ReasonALU: total ALU demand exceeded the target budget.
	ReasonALU Reason = "alu"
	// ReasonMemory: minimum register memory exceeded the total budget.
	ReasonMemory Reason = "memory"
	// ReasonAssume: an assume statement bounds the symbolic directly.
	ReasonAssume Reason = "assume"
	// ReasonCap: the safety cap was reached (degenerate loop bodies).
	ReasonCap Reason = "cap"
)

// Bound is an interval constraint on a symbolic extracted from assume
// statements. NoUpper marks the absence of an upper bound.
type Bound struct {
	Lo, Hi int64
}

// NoUpper is the Hi value meaning "unbounded above".
const NoUpper = int64(math.MaxInt64)

// Detail records the bound chosen for one symbolic and why.
type Detail struct {
	K      int
	Why    Reason
	Graphs int // dependency graphs built while searching
	// Estimated counts the graphs whose longest path came from dep's
	// estimate instead of a completed search (too many nodes, or the
	// search budget ran out); 0 means the path criterion was exact.
	Estimated int
}

// Result holds the computed upper bounds.
type Result struct {
	// Order lists the loop-governing symbolics by first appearance in
	// the program's loops; diagnostics range over it, not the maps, so
	// they read the same on every run.
	Order []*lang.Symbolic
	// LoopBound maps each loop-governing symbolic to its unroll bound.
	LoopBound map[*lang.Symbolic]int
	// Details explains each bound.
	Details map[*lang.Symbolic]Detail
	// Assume holds the interval constraints extracted from assumes.
	Assume map[*lang.Symbolic]Bound
}

// AssumeBounds extracts per-symbolic interval constraints from the
// program's assume declarations. Only conjunctions of single-variable
// linear comparisons tighten the intervals; other assumes are left to
// the ILP.
func AssumeBounds(u *lang.Unit) map[*lang.Symbolic]Bound {
	bounds := make(map[*lang.Symbolic]Bound, len(u.Symbolics))
	for _, s := range u.Symbolics {
		bounds[s] = Bound{Lo: 0, Hi: NoUpper}
	}
	var walk func(e lang.Expr)
	walk = func(e lang.Expr) {
		bin, ok := e.(*lang.Binary)
		if !ok {
			return
		}
		if bin.Op == lang.AND {
			walk(bin.X)
			walk(bin.Y)
			return
		}
		sym, c, op, ok := splitComparison(u, bin)
		if !ok {
			return
		}
		b := bounds[sym]
		switch op {
		case lang.LE: // sym <= c
			if c < b.Hi {
				b.Hi = c
			}
		case lang.LT: // sym < c
			if c-1 < b.Hi {
				b.Hi = c - 1
			}
		case lang.GE: // sym >= c
			if c > b.Lo {
				b.Lo = c
			}
		case lang.GT: // sym > c
			if c+1 > b.Lo {
				b.Lo = c + 1
			}
		case lang.EQ:
			if c > b.Lo {
				b.Lo = c
			}
			if c < b.Hi {
				b.Hi = c
			}
		}
		bounds[sym] = b
	}
	for _, a := range u.Assumes {
		walk(a.Cond)
	}
	return bounds
}

// splitComparison normalizes "sym op const" / "const op sym" into
// (sym, const, op-with-sym-on-left).
func splitComparison(u *lang.Unit, bin *lang.Binary) (*lang.Symbolic, int64, lang.Kind, bool) {
	symOf := func(e lang.Expr) *lang.Symbolic {
		ref, ok := e.(*lang.Ref)
		if !ok || !ref.IsSimpleIdent() {
			return nil
		}
		return u.SymbolicByName(ref.Base())
	}
	var constOf func(e lang.Expr) (int64, bool)
	constOf = func(e lang.Expr) (int64, bool) {
		switch e := e.(type) {
		case *lang.IntLit:
			return e.Value, true
		case *lang.Ref:
			if e.IsSimpleIdent() {
				v, ok := u.Consts[e.Base()]
				return v, ok
			}
		case *lang.Unary:
			if e.Op == lang.MINUS {
				v, ok := constOf(e.X)
				return -v, ok
			}
		}
		return 0, false
	}
	switch bin.Op {
	case lang.LE, lang.LT, lang.GE, lang.GT, lang.EQ:
	default:
		return nil, 0, 0, false
	}
	if s := symOf(bin.X); s != nil {
		if c, ok := constOf(bin.Y); ok {
			return s, c, bin.Op, true
		}
		return nil, 0, 0, false
	}
	if s := symOf(bin.Y); s != nil {
		if c, ok := constOf(bin.X); ok {
			return s, c, flip(bin.Op), true
		}
	}
	return nil, 0, 0, false
}

func flip(op lang.Kind) lang.Kind {
	switch op {
	case lang.LE:
		return lang.GE
	case lang.LT:
		return lang.GT
	case lang.GE:
		return lang.LE
	case lang.GT:
		return lang.LT
	default:
		return op
	}
}

// UpperBounds computes unroll bounds for every loop-governing symbolic
// of the program against the target.
func UpperBounds(u *lang.Unit, target *pisa.Target) (*Result, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		LoopBound: make(map[*lang.Symbolic]int),
		Details:   make(map[*lang.Symbolic]Detail),
		Assume:    AssumeBounds(u),
	}
	for _, l := range u.Loops {
		if _, done := res.LoopBound[l.Sym]; done {
			continue
		}
		res.Order = append(res.Order, l.Sym)
		detail := boundFor(u, l.Sym, target, res.Assume)
		res.LoopBound[l.Sym] = detail.K
		res.Details[l.Sym] = detail
	}
	return res, nil
}

// hardCap bounds the search for degenerate loop bodies that consume no
// constrained resource.
func hardCap(target *pisa.Target) int {
	cap := target.TotalALUs()
	if cap < target.Stages {
		cap = target.Stages
	}
	return cap + 1
}

func boundFor(u *lang.Unit, v *lang.Symbolic, target *pisa.Target, assumes map[*lang.Symbolic]Bound) Detail {
	assume := assumes[v]
	limit := hardCap(target)
	if assume.Hi != NoUpper && assume.Hi < int64(limit) {
		limit = int(assume.Hi)
		if limit < 0 {
			limit = 0
		}
	}
	var d Detail
	fits := func(k int) (bool, Reason) {
		g := dep.BuildFor(u, v, k, target)
		d.Graphs++
		path, exact := g.LongestSimplePath()
		if !exact {
			d.Estimated++
		}
		if path > target.Stages {
			return false, ReasonPath
		}
		hf, hl := g.TotalALUs()
		if hf > target.StatefulALUs*target.Stages {
			return false, ReasonALU
		}
		if hl > target.StatelessALUs*target.Stages {
			return false, ReasonALU
		}
		if hf+hl > target.TotalALUs() {
			return false, ReasonALU
		}
		if minMemoryBits(u, v, k, assumes) > int64(target.MemoryBits)*int64(target.Stages) {
			return false, ReasonMemory
		}
		return true, ""
	}
	for d.K < limit {
		ok, why := fits(d.K + 1)
		if !ok {
			d.Why = why
			return d
		}
		d.K++
	}
	d.Why = ReasonCap
	if assume.Hi != NoUpper && int64(limit) == assume.Hi {
		d.Why = ReasonAssume
	}
	return d
}

// minMemoryBits returns the minimum register memory the program needs
// when symbolic v takes value k: every register instance holds at
// least one cell (or the assume-implied minimum cell count).
func minMemoryBits(u *lang.Unit, v *lang.Symbolic, k int, assume map[*lang.Symbolic]Bound) int64 {
	var total int64
	for _, r := range u.Registers {
		count := int64(1)
		switch {
		case r.Count.Sym == v:
			count = int64(k)
		case r.Count.IsSymbolic():
			if lo := assume[r.Count.Sym].Lo; lo > 1 {
				count = lo
			}
		default:
			count = r.Count.Const
		}
		cells := int64(1)
		switch {
		case r.Cells.Sym == v:
			cells = int64(k)
		case r.Cells.IsSymbolic():
			if lo := assume[r.Cells.Sym].Lo; lo > 1 {
				cells = lo
			}
		default:
			cells = r.Cells.Const
		}
		total += count * cells * int64(r.Width)
	}
	return total
}

// SizeBound returns an upper bound on a size-governing symbolic (one
// controlling register cells rather than loop iterations): the largest
// cell count any single instance could take given per-stage memory (or
// the whole pipeline's memory when register spreading is enabled).
func SizeBound(u *lang.Unit, sym *lang.Symbolic, target *pisa.Target) int64 {
	assume := AssumeBounds(u)
	best := int64(0)
	budget := int64(target.MemoryBits)
	if target.AllowRegisterSpread {
		budget *= int64(target.Stages)
	}
	for _, r := range u.Registers {
		if r.Cells.Sym != sym {
			continue
		}
		if b := budget / int64(r.Width); b > best {
			best = b
		}
	}
	if best == 0 {
		// Not a cell extent anywhere; fall back to elastic metadata
		// extents bounded by PHV.
		for _, f := range u.ElasticFields() {
			if f.Count.Sym == sym {
				if b := int64(target.ElasticPHVBits() / f.Width); b > best {
					best = b
				}
			}
		}
	}
	if hi := assume[sym].Hi; hi != NoUpper && (best == 0 || hi < best) {
		best = hi
	}
	return best
}

// PathEstimates sums Detail.Estimated over the symbolics: how many
// path criteria of this analysis were answered by dep's estimate.
func (r *Result) PathEstimates() int {
	n := 0
	for _, d := range r.Details {
		n += d.Estimated
	}
	return n
}

// String renders the result for diagnostics.
func (r *Result) String() string {
	s := ""
	for _, sym := range r.Order {
		d := r.Details[sym]
		s += fmt.Sprintf("%s <= %d (%s, %d graphs)\n", sym.Name, d.K, d.Why, d.Graphs)
	}
	return s
}
