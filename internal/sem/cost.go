package sem

import (
	"p4all/internal/lang"
	"p4all/internal/pisa"
)

// The cost model: which constructs take which of a stage's budgeted
// units, the target's Hf and Hl of the paper's §4.3. PISA allocates one
// VLIW instruction per destination container, so an ALU is charged per
// destination, not per operator (pisa.ALUCost):
//
//	construct                                          charge
//	assignment to a header or metadata field           1 stateless ALU
//	hash call, wherever it appears                     1 hash unit
//	each distinct register instance a scope touches    1 stateful ALU
//	table match, with its key expressions              1 stateless ALU
//	operators, unary ops, min, max, && and ||,         0
//	  guard and if conditions
//
// A register instance read and written in one scope is one
// read-modify-write, one stateful ALU. An invocation's guard list and
// its action body are separate scopes. Operators fold into the
// destination ALU's instruction, conditions into the stage's gateway.
//
// The table is read two ways. Profile sums it statically over an
// invocation, both arms of every if included, since both arms'
// instructions occupy the stage: that is what dep and the ILP budget.
// A step's Plan charges it at run time: a block (the guard list, the
// body, an if arm) charges the constructs it holds directly when it
// starts to run, so a packet is charged for the arms it takes, each
// register instance once along its path.

// Profile returns the ALU profile of invocation inv: the table summed
// over its guard list and its action body (a table match's key
// expressions, for a table's match pseudo-action), both arms of every
// if included. Instance indexes are the iteration or constants.
func Profile(u *lang.Unit, inv *lang.Invocation) pisa.ActionProfile {
	return guardProfile(u, inv).Add(bodyProfile(u, inv))
}

// staticStep is inv as a step of iteration -1: its names resolve as a
// step's do before the layout exists, the iteration, not yet known, to
// ^0, which no constant index is.
func staticStep(inv *lang.Invocation) Step { return Step{Inv: inv, Iter: -1} }

// guardProfile is the table summed over inv's guard list.
func guardProfile(u *lang.Unit, inv *lang.Invocation) pisa.ActionProfile {
	s := staticStep(inv)
	c := coster{u: u, s: &s, deep: true}
	for _, e := range inv.Guards {
		c.expr(e)
	}
	return c.use
}

// bodyProfile is the table summed over inv's action body, or over a
// table's keys and its match when the action is the table's match
// pseudo-action.
func bodyProfile(u *lang.Unit, inv *lang.Invocation) pisa.ActionProfile {
	s := staticStep(inv)
	c := coster{u: u, s: &s, deep: true}
	if d := inv.Action.Decl; d != nil && d.Body != nil {
		c.stmts(d.Body)
		return c.use
	}
	if t := matchOf(u, inv.Action); t != nil {
		for _, k := range t.Decl.Keys {
			c.expr(k)
		}
		c.use.StatelessOps++ // the match itself
	}
	return c.use
}

// Plan is what one step charges at run time: Guards as the step starts,
// Body when its guards hold, and Arms[b] as if arm b is taken (an arm
// absent from Arms charges nothing). It also holds the value of every
// simple name the step's guards and body read, bound once (Step.Name),
// so the walker resolves none while it evaluates.
type Plan struct {
	Guards, Body pisa.ActionProfile
	Arms         map[*lang.Block]pisa.ActionProfile
	names        map[*lang.Ref]uint64
}

// Plan returns step s's charge plan, built on first use: each block
// charges the table over the statements it holds directly, an if
// statement's condition included and its arms left to their own
// entries, and a register instance only when no enclosing block touched
// it. Instance indexes resolve as the walker resolves them in s.
func (s *Step) Plan(u *lang.Unit, syms map[string]int64) *Plan {
	if s.plan != nil {
		return s.plan
	}
	p := &Plan{}
	g := coster{u: u, s: s, syms: syms, plan: p}
	for _, e := range s.Inv.Guards {
		g.expr(e)
	}
	p.Guards = g.use
	if d := s.Inv.Action.Decl; d != nil && d.Body != nil {
		p.Body = p.block(coster{u: u, s: s, syms: syms, plan: p}, d.Body)
	}
	s.plan = p
	return p
}

// block returns what b charges under c, which holds the register
// instances the enclosing blocks touched, and plans b's if arms.
func (p *Plan) block(c coster, b *lang.Block) pisa.ActionProfile {
	c.stmts(b)
	own := c.use
	c.use = pisa.ActionProfile{}
	c.seen = c.seen[:len(c.seen):len(c.seen)] // arms append to copies
	eachIf(b, func(s *lang.IfStmt) {
		for _, arm := range []*lang.Block{s.Then, s.Else} {
			if arm == nil {
				continue
			}
			if use := p.block(c, arm); use != (pisa.ActionProfile{}) {
				if p.Arms == nil {
					p.Arms = make(map[*lang.Block]pisa.ActionProfile)
				}
				p.Arms[arm] = use
			}
		}
	})
	return own
}

// eachIf calls f on the if statements b holds directly, through nested
// bare blocks.
func eachIf(b *lang.Block, f func(*lang.IfStmt)) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			eachIf(s, f)
		case *lang.IfStmt:
			f(s)
		}
	}
}

// regInst is one register instance.
type regInst struct {
	name string
	inst uint64
}

// coster sums the cost table over constructs into use, each register
// instance the one its reference selects in step s. With plan set it
// also binds every simple name it passes into plan.names, as step s
// resolves it under syms.
type coster struct {
	u    *lang.Unit
	s    *Step
	syms map[string]int64
	plan *Plan
	deep bool      // descend into if arms
	seen []regInst // register instances already charged
	use  pisa.ActionProfile
}

func (c *coster) stmts(b *lang.Block) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *lang.Block:
			c.stmts(s)
		case *lang.AssignStmt:
			c.expr(s.RHS)
			c.ref(s.LHS)
			if _, f := Bound(c.u, s.LHS); f != nil {
				c.use.StatelessOps++
			}
		case *lang.IfStmt:
			c.expr(s.Cond)
			if c.deep {
				c.stmts(s.Then)
				if s.Else != nil {
					c.stmts(s.Else)
				}
			}
		}
	}
}

func (c *coster) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.Unary:
		c.expr(e.X)
	case *lang.Binary:
		c.expr(e.X)
		c.expr(e.Y)
	case *lang.CallExpr:
		if e.Name == "hash" {
			c.use.Hashes++
		}
		for _, a := range e.Args {
			c.expr(a)
		}
	case *lang.Ref:
		c.ref(e)
	}
}

// ref charges a reference: its index expressions, and the register
// instance it touches unless already charged.
func (c *coster) ref(ref *lang.Ref) {
	if c.plan != nil && ref.IsSimpleIdent() {
		if v, ok := c.s.Name(c.u, c.syms, ref); ok {
			if c.plan.names == nil {
				c.plan.names = make(map[*lang.Ref]uint64)
			}
			c.plan.names[ref] = v
		}
	}
	for _, seg := range ref.Segs {
		for _, ix := range seg.Indexes {
			c.expr(ix)
		}
	}
	reg, _ := Bound(c.u, ref)
	if reg == nil {
		return
	}
	ri := regInst{name: reg.Name}
	if reg.Decl.Count != nil {
		ri.inst = uint64(ref.InstAt(c.s.Iter))
	}
	for _, s := range c.seen {
		if s == ri {
			return
		}
	}
	c.seen = append(c.seen, ri)
	c.use.RegisterAccesses++
}
