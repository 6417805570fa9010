// Package check implements the static verification the paper's §7
// leaves as future work: proving that every index used with a symbolic
// (elastic) array stays in bounds. The checker compares each access's
// index range against the array's extent using the loop structure and
// the program's assume-derived intervals, reporting a warning for any
// access it cannot prove safe.
package check

import (
	"fmt"
	"slices"

	"p4all/internal/lang"
	"p4all/internal/sem"
	"p4all/internal/unroll"
)

// Warning is one potential out-of-bounds access.
type Warning struct {
	Action string
	Target string // array being indexed
	Index  string // description of the index
	Reason string
}

func (w Warning) String() string {
	return fmt.Sprintf("%s: index %s of %s may be out of bounds: %s", w.Action, w.Index, w.Target, w.Reason)
}

// Bounds statically checks every elastic-array access of the program.
// A nil slice means every access was proven in bounds.
func Bounds(u *lang.Unit) []Warning {
	c := &checker{u: u, assume: unroll.AssumeBounds(u)}
	for _, inv := range u.Invocations {
		c.invocation(inv)
	}
	return c.warnings
}

type checker struct {
	u        *lang.Unit
	assume   map[*lang.Symbolic]unroll.Bound
	warnings []Warning
}

// warnf records a warning once, however often its access recurs.
func (c *checker) warnf(action, target, index, reason string, args ...interface{}) {
	w := Warning{Action: action, Target: target, Index: index, Reason: fmt.Sprintf(reason, args...)}
	if !slices.Contains(c.warnings, w) {
		c.warnings = append(c.warnings, w)
	}
}

// invocation checks every instance-selecting index of one call site,
// its guards' included: the instance the resolver bound each to (the
// iteration or a constant), as sem's footprint lists it.
func (c *checker) invocation(inv *lang.Invocation) {
	var loopSym *lang.Symbolic
	if l := inv.Loop(); l != nil {
		loopSym = l.Sym
	}
	for _, a := range sem.Footprint(c.u, inv) {
		action := inv.Action.Name
		if a.Guard {
			action += " (guard)"
		}
		if a.Reg != nil {
			c.access(action, a.Reg.Name, a.Reg.Count, a.Inst, int64(a.Const), loopSym, inv)
		} else {
			c.access(action, a.Field.Qual(), a.Field.Count, a.Inst, int64(a.Const), loopSym, inv)
		}
	}
}

// access proves one instance selection in bounds, or warns.
func (c *checker) access(action, target string, extent lang.SizeExpr, inst sem.Inst, constIdx int64, loopSym *lang.Symbolic, inv *lang.Invocation) {
	switch inst {
	case sem.InstScalar:
		return // no elastic dimension to overrun
	case sem.InstConst:
		// Constant index: must be below the extent's guaranteed
		// minimum value.
		switch {
		case !extent.IsSymbolic():
			if constIdx >= extent.Const {
				c.warnf(action, target, fmt.Sprintf("%d", constIdx),
					"extent is %d", extent.Const)
			}
		default:
			lo := c.assume[extent.Sym].Lo
			if constIdx >= lo {
				c.warnf(action, target, fmt.Sprintf("%d", constIdx),
					"extent %s is only assumed >= %d; add `assume %s >= %d`",
					extent.Sym.Name, lo, extent.Sym.Name, constIdx+1)
			}
		}
	case sem.InstIter:
		// Iteration-parameter index: i ranges over [0, loopSym). Safe
		// exactly when the extent is the same symbolic, a constant
		// provably >= the loop bound, or a symbolic assumed >= it.
		if loopSym == nil {
			if inv.HasConstIndex {
				c.access(action, target, extent, sem.InstConst, inv.ConstIndex, nil, inv)
				return
			}
			c.warnf(action, target, "iteration parameter",
				"indexed call outside any elastic loop")
			return
		}
		switch {
		case extent.IsSymbolic() && extent.Sym == loopSym:
			return // i < loopSym indexes an array sized loopSym: safe
		case extent.IsSymbolic():
			// Different symbolic: safe only if extent >= loop bound is
			// implied by the assumes (extent.Lo >= loopSym.Hi).
			loopHi := c.assume[loopSym].Hi
			extLo := c.assume[extent.Sym].Lo
			if loopHi == unroll.NoUpper || extLo < loopHi {
				c.warnf(action, target, fmt.Sprintf("%s (< %s)", "iteration", loopSym.Name),
					"array sized by %s; prove %s >= %s with assume statements",
					extent.Sym.Name, extent.Sym.Name, loopSym.Name)
			}
		default:
			loopHi := c.assume[loopSym].Hi
			if loopHi == unroll.NoUpper || extent.Const < loopHi {
				c.warnf(action, target, fmt.Sprintf("iteration (< %s)", loopSym.Name),
					"array extent is the constant %d but %s may reach %s",
					extent.Const, loopSym.Name, boundText(loopHi))
			}
		}
	}
}

func boundText(hi int64) string {
	if hi == unroll.NoUpper {
		return "any value"
	}
	return fmt.Sprintf("%d", hi)
}
