package ilpgen

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/pisa"
)

// ErrInfeasible is returned when the program cannot fit the target
// under its assume constraints.
var ErrInfeasible = errors.New("ilpgen: program does not fit the target")

// Placement records one placed action instance.
type Placement struct {
	Action string
	Name   string // instance name, e.g. incr[2]
	Iter   int    // innermost iteration; -1 for inelastic
	Stage  int
	Node   int // dependency node id
}

// RegPlacement records where one register instance landed and how much
// memory it received.
type RegPlacement struct {
	Register string
	Index    int
	Width    int
	Cells    int64
	Stages   []int         // occupied stages (one unless spreading)
	Bits     map[int]int64 // bits allocated per stage
}

// StageUse summarizes one stage's resource consumption.
type StageUse struct {
	Hf, Hl, Hashes int
	MemoryBits     int64
}

// Stats reports the size of the generated ILP and the solve effort —
// the numbers of the paper's Figure 11 — plus the certified optimality
// gap of the extracted layout (0 when optimality was proven).
type Stats struct {
	Vars, Constrs int
	// Effort is the search's work (ilp.Solution.Effort).
	ilp.Effort
	// Presolve summarizes the root presolve's reductions (all zero when
	// presolve is disabled).
	Presolve ilp.PresolveStats
	Gap      float64
	// LimitHit reports that a node or time limit stopped the search
	// before the requested gap was certified (the layout is the best
	// incumbent found).
	LimitHit bool
	// WarmStarted reports that the solve installed a caller-supplied
	// MIP start (ilp.Options.Start) as its root incumbent; StartIndex,
	// meaningful only when it is true, says which (see Seed).
	WarmStarted bool
	StartIndex  int
	// RootStart says how the root LP started: "cold", "pooled" or
	// "rejected (<reason>)" (see ilp.Solution.RootStart).
	RootStart string
	// Threads is the number of branch-and-bound workers the solve ran
	// with; Workers carries their per-worker effort tallies.
	Threads int
	Workers []ilp.Effort
}

// Layout is a concrete solution: symbolic assignments plus the mapping
// of program elements to stages (the compiler's second output in
// Figure 8).
type Layout struct {
	Target     *pisa.Target
	Symbolics  map[string]int64
	Objective  float64
	Placements []Placement
	Registers  []RegPlacement
	Stages     []StageUse
	Stats      Stats
	// Values is the raw solver assignment, one entry per ILP variable.
	// A later re-solve of the same program (possibly under a different
	// utility) can pass it in ilp.Options.Start to warm-start the
	// search from this layout; see History.
	Values []float64
}

// History is the MIP-start pool of a loop that re-solves one model as
// its objective drifts: the start (ilp.Start) of the incumbent layout
// and of the layout it replaced, in that order. Each start holds the
// layout's raw assignment (Layout.Values) and, when the loop pools it,
// the root LP basis of the solve that found the layout. Every re-solve
// passes both as ilp.Options.Start, and the solver installs whichever
// scores better under the new objective; its root LP ends at that
// start's basis when the basis is still optimal. Two is the smallest
// history that covers a regime flipping back (A → B → A): the flip back
// starts from A's own layout and, when that is still within the gap,
// ends at the root. It is a constant, not an option: a deeper pool
// would hand a periodic drift layouts from its previous period, so its
// cycles would stop repeating the first one.
type History [2]ilp.Start

// historyRoles names History's entries, and so the values of Seed.
var historyRoles = [...]string{"incumbent", "predecessor"}

// Push records s as the incumbent; the old incumbent becomes the
// predecessor.
func (h *History) Push(s ilp.Start) { h[0], h[1] = s, h[0] }

// Starts returns the pooled starts for ilp.Options.Start, incumbent
// first (none before the first Push).
func (h History) Starts() []ilp.Start {
	n := 0
	for n < len(h) && h[n].Values != nil {
		n++
	}
	return h[:n:n]
}

// Seed names the start that seeded the solve's incumbent by its role
// in a History: "incumbent" or "predecessor", or "none" when the solve
// installed no start.
func (s Stats) Seed() string {
	switch {
	case !s.WarmStarted:
		return "none"
	case s.StartIndex < len(historyRoles):
		return historyRoles[s.StartIndex]
	default:
		return fmt.Sprintf("start %d", s.StartIndex)
	}
}

// Symbolic returns the solved value of the named symbolic.
func (l *Layout) Symbolic(name string) int64 { return l.Symbolics[name] }

// Schedule returns the layout's placements in execution order: (stage,
// program order of the action's first invocation in u, iteration), with
// placements of actions u never invokes last within their stage and
// ties kept in layout order. The code generator emits its apply block in
// this order, and the simulator and the translation validator execute
// it, so the emitted program is the text of what they run.
func (l *Layout) Schedule(u *lang.Unit) []Placement {
	invOrder := make(map[string]int, len(u.Invocations))
	for _, inv := range u.Invocations {
		if _, ok := invOrder[inv.Action.Name]; !ok {
			invOrder[inv.Action.Name] = inv.Order
		}
	}
	orderOf := func(pl Placement) int {
		if o, ok := invOrder[pl.Action]; ok {
			return o
		}
		return math.MaxInt
	}
	order := append([]Placement(nil), l.Placements...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Stage != order[j].Stage {
			return order[i].Stage < order[j].Stage
		}
		oi, oj := orderOf(order[i]), orderOf(order[j])
		if oi != oj {
			return oi < oj
		}
		return order[i].Iter < order[j].Iter
	})
	return order
}

// Solve optimizes the generated ILP and extracts the layout.
func (p *ILP) Solve(opts ilp.Options) (*Layout, error) {
	sol, err := solve(p.Model, opts)
	if err != nil {
		return nil, err
	}
	return p.extract(sol), nil
}

// solve optimizes m and returns a solution only if it has a verified
// incumbent: the optimum, or the best layout a limit stop found.
func solve(m *ilp.Model, opts ilp.Options) (*ilp.Solution, error) {
	sol, err := ilp.Solve(m, opts)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.StatusOptimal:
	case ilp.StatusLimit:
		if sol.Values == nil {
			return nil, fmt.Errorf("ilpgen: solver hit its limit with no incumbent")
		}
	case ilp.StatusInfeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("ilpgen: solver returned %v", sol.Status)
	}
	if err := ilp.Verify(m, sol.Values); err != nil {
		return nil, fmt.Errorf("ilpgen: solution failed verification: %w", err)
	}
	return sol, nil
}

// extract reads this unit's slice of a verified solution back into a
// Layout. A joint solution is extracted once per tenant.
func (p *ILP) extract(sol *ilp.Solution) *Layout {
	l := &Layout{
		Target:    p.Target,
		Symbolics: make(map[string]int64, len(p.Unit.Symbolics)),
		Objective: sol.Objective,
		Stages:    make([]StageUse, p.Target.Stages),
		Stats: Stats{
			Vars:        p.Model.NumVars(),
			Constrs:     p.Model.NumConstrs(),
			Effort:      sol.Effort,
			Presolve:    sol.Presolve,
			Gap:         sol.AchievedGap(),
			LimitHit:    sol.Status == ilp.StatusLimit,
			WarmStarted: sol.WarmStarted,
			StartIndex:  sol.StartIndex,
			RootStart:   sol.RootStart,
			Threads:     sol.Threads,
			Workers:     append([]ilp.Effort(nil), sol.Workers...),
		},
		Values: append([]float64(nil), sol.Values...),
	}
	for _, sym := range p.Unit.Symbolics {
		v := p.symValueExpr(sym).Eval(sol.Values)
		if p.roleOf(sym) == roleSize {
			// Continuous cell counts floor to the largest integer
			// size that still fits.
			l.Symbolics[sym.Name] = int64(v + 1e-6)
		} else {
			l.Symbolics[sym.Name] = int64(math.Round(v))
		}
	}
	// Node placements.
	nodeStages := make([][]int, len(p.Graph.Nodes))
	for _, n := range p.Graph.Nodes {
		for s, xv := range p.x[n.ID] {
			if sol.Value(xv) > 0.5 {
				nodeStages[n.ID] = append(nodeStages[n.ID], s)
				l.Stages[s].Hf += n.Hf
				l.Stages[s].Hl += n.Hl
				l.Stages[s].Hashes += n.Hashes
			}
		}
		if len(nodeStages[n.ID]) == 0 {
			continue
		}
		stage := nodeStages[n.ID][0]
		for _, in := range n.Instances {
			iter := -1
			if in.Inv.Elastic() {
				iter = in.Iter()
			} else if in.Inv.HasConstIndex {
				iter = int(in.Inv.ConstIndex)
			}
			l.Placements = append(l.Placements, Placement{
				Action: in.Inv.Action.Name,
				Name:   in.Name(),
				Iter:   iter,
				Stage:  stage,
				Node:   n.ID,
			})
		}
	}
	sort.Slice(l.Placements, func(i, j int) bool {
		if l.Placements[i].Stage != l.Placements[j].Stage {
			return l.Placements[i].Stage < l.Placements[j].Stage
		}
		return l.Placements[i].Name < l.Placements[j].Name
	})
	// Register placements.
	for _, reg := range p.Unit.Registers {
		for _, ri := range p.insts[reg.Name] {
			vars, ok := p.mem[ri]
			if !ok {
				continue
			}
			// The memory variables are continuous: registers sharing a
			// stage can each be granted a share that is no multiple of
			// the element width. What the emitted register<bit<W>>(Cells)
			// occupies is Cells*Width bits, so that is what is recorded
			// (and charged to the stages), filled in stage order.
			rp := RegPlacement{Register: reg.Name, Index: ri.Index, Width: reg.Width, Bits: make(map[int]int64)}
			granted := make([]int64, len(vars))
			var total int64
			for s, mv := range vars {
				if bits := int64(math.Round(sol.Value(mv))); bits > 0 {
					granted[s] = bits
					total += bits
				}
			}
			if total == 0 {
				continue // instance does not exist in this layout
			}
			rp.Cells = total / int64(reg.Width)
			left := rp.Cells * int64(reg.Width)
			for s, bits := range granted {
				bits = min(bits, left)
				if bits <= 0 {
					continue
				}
				rp.Stages = append(rp.Stages, s)
				rp.Bits[s] = bits
				l.Stages[s].MemoryBits += bits
				left -= bits
			}
			l.Registers = append(l.Registers, rp)
		}
	}
	return l
}

// String renders the layout as a per-stage report (Figure 7 style).
func (l *Layout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout for %s (objective %.4g)\n", l.Target.Name, l.Objective)
	syms := make([]string, 0, len(l.Symbolics))
	for name := range l.Symbolics {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	for _, name := range syms {
		fmt.Fprintf(&b, "  %s = %d\n", name, l.Symbolics[name])
	}
	for s := 0; s < l.Target.Stages; s++ {
		var acts, regs []string
		for _, pl := range l.Placements {
			if pl.Stage == s {
				acts = append(acts, pl.Name)
			}
		}
		for _, rp := range l.Registers {
			if bits, ok := rp.Bits[s]; ok {
				regs = append(regs, fmt.Sprintf("%s/%d(%db)", rp.Register, rp.Index, bits))
			}
		}
		if len(acts) == 0 && len(regs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  stage %2d: actions={%s} registers={%s} (Hf=%d Hl=%d mem=%db)\n",
			s, strings.Join(acts, ", "), strings.Join(regs, ", "),
			l.Stages[s].Hf, l.Stages[s].Hl, l.Stages[s].MemoryBits)
	}
	return b.String()
}
