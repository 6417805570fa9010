package tv

import (
	"fmt"
	"sort"

	"p4all/internal/codegen"
	"p4all/internal/dep"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/sem"
	"p4all/internal/structures"
)

// This file implements the equivalence half of the validator: a
// bounded symbolic execution of (a) the elastic source under the solved
// symbolic assignment and (b) the emitted concrete program, both over a
// shared symbolic packet and register file, both walking the layout's
// canonical schedule (sem.Schedule): placed instances in (stage,
// program order of the action's first invocation, iteration) order,
// the step list internal/sim executes. The source side is the walker of
// internal/sem, the one evaluator the reference interpreter also runs,
// instantiated over symbolic nodes: evalCtx is its domain. The target
// side takes guards from the apply block and bodies from the emitted
// actions, with the apply block reconciled against the schedule entry
// by entry at setup (a dropped or reordered apply step is an obligation
// before any path runs). The legality of the schedule itself, that the
// solver's reordering of the program respects every dependency, is the
// audit's job (Prec/Excl re-derivation).
//
// Per path it discharges header-output, metadata-output,
// register-state, Stats-counter, and abort-behavior equivalence. The
// domain decides what the shared walker leaves open: a branch on a
// symbolic condition forks the path enumeration, a zero divisor aborts,
// and a dynamic instance index, which the interpreter evaluates at run
// time but the emitted program cannot express, is an obligation.

// sv is a symbolic value of the emitted program with the bit width it
// wraps at, as the shared walker tracks widths on the source side.
type sv struct {
	n *node
	w int
}

// regKey identifies one register array instance.
type regKey struct {
	name string
	inst int64
}

// fieldName is a slot's identity: the simulator storage key within the
// header or the metadata map.
type fieldName struct {
	header bool
	key    string
}

// fieldSlot is one header or metadata storage location both walks can
// touch, resolved once per machine.
type fieldSlot struct {
	fieldName
	in *node // packet input variable, interned on first unwritten header read
}

// regSlot is one materialized register array instance.
type regSlot struct {
	regKey
	cells int64
	init  *node // opaque initial contents, interned on first use
}

// entry is one slot of a pathState. It holds a value only while stamp
// equals the machine's run generation, so starting a run clears every
// slot without touching it; within a run, backtracking restores slots
// from the undo log.
type entry struct {
	n     *node
	stamp uint64
}

// undoRec is one slot overwrite, logged so a rollback can restore the
// entry it replaced.
type undoRec struct {
	reg  bool // register slot, else field slot
	slot int32
	old  entry
}

// checkpoint is one side's state at the start of a schedule step, minus
// the slot contents (those are the undo log up to undo) and the ALU
// counts (pathState.ckALU).
type checkpoint struct {
	undo      int
	regReads  uint64
	regWrites uint64
	pruned    int
	taken     int // free decisions made before the step (source side)
}

// pathState is the mutable per-packet state of one execution side. The
// machine owns one per side and reuses it for every path of a run: a
// backtrack rolls the side back to the checkpoint of a schedule step and
// it resumes there, so a path executes only the steps its flipped
// decision can change.
type pathState struct {
	fields    []entry // written header (reads default to packet inputs) and metadata (default 0) fields, by field slot
	regs      []entry // array values of written register instances, by register slot
	regReads  uint64
	regWrites uint64
	alu       []uint64
	aborted   string // abort reason; empty while running
	pruned    int    // interval-decided conditions this path has met on this side

	next  int          // next schedule step to execute; the steps before it are done
	undo  []undoRec    // slot overwrites since the run began, oldest first
	ckpts []checkpoint // by schedule step: this side's state as the step began
	ckALU []uint64     // by schedule step: len(alu) ALU counts as the step began
}

func newPathState(regs, stages, steps int) pathState {
	return pathState{
		regs:  make([]entry, regs),
		alu:   make([]uint64, stages),
		ckpts: make([]checkpoint, steps),
		ckALU: make([]uint64, steps*stages),
	}
}

// restart puts the side before the first step with nothing done; the
// slots are cleared by the generation bump that accompanies it
// (machine.beginRun).
func (st *pathState) restart() {
	st.regReads, st.regWrites, st.aborted, st.pruned = 0, 0, "", 0
	clear(st.alu)
	st.next = 0
	st.undo = st.undo[:0]
}

// save records the checkpoint of step i, which is about to run.
func (st *pathState) save(i, taken int) {
	st.ckpts[i] = checkpoint{undo: len(st.undo), regReads: st.regReads, regWrites: st.regWrites, pruned: st.pruned, taken: taken}
	copy(st.ckALU[i*len(st.alu):], st.alu)
}

// rollback returns the side to the checkpoint of step i, undoing every
// slot write made since, so it resumes at step i. A step only starts on
// a side that has not aborted, so nothing is aborted there.
func (st *pathState) rollback(i int) {
	c := &st.ckpts[i]
	for j := len(st.undo) - 1; j >= c.undo; j-- {
		u := &st.undo[j]
		if u.reg {
			st.regs[u.slot] = u.old
		} else {
			st.fields[u.slot] = u.old
		}
	}
	st.undo = st.undo[:c.undo]
	st.regReads, st.regWrites, st.pruned = c.regReads, c.regWrites, c.pruned
	copy(st.alu, st.ckALU[i*len(st.alu):])
	st.aborted = ""
	st.next = i
}

// abortErr carries the interpreter-visible abort reason (packet
// processing error). Both sides must abort with the same reason at the
// same observable state to stay equivalent.
type abortErr struct{ reason string }

func (e *abortErr) Error() string { return e.reason }

// obligErr is a residual proof obligation: something the symbolic
// evaluator cannot discharge. Obligations are never silently passed —
// they trigger concrete counterexample search and a failed verdict.
type obligErr struct {
	kind   string
	detail string
}

func (e *obligErr) Error() string { return e.kind + ": " + e.detail }

// failure is one reportable reason the equivalence proof did not go
// through.
type failure struct {
	Kind   string
	Detail string
}

// decision is one free branch decision of the current path: the branch
// taken, the schedule step the source made it in, and the condition.
type decision struct {
	v    bool
	step int
	n    *node
}

// tvStep is one slot of the canonical execution schedule, shared by the
// source and target walks.
type tvStep struct {
	sem.Step
	caction *codegen.CAction // emitted body (nil: missing from the program)
	// hasApply marks steps with their own apply-block entry; guards are
	// that entry's conditions. Table-dispatched actions have no apply
	// entry — the target replays the invocation guards for them.
	hasApply bool
	guards   []codegen.CExpr
}

// machine drives the two-sided symbolic execution.
type machine struct {
	t      *symtab
	u      *lang.Unit
	layout *ilpgen.Layout
	prog   *codegen.Concrete

	steps   []tvStep
	actions map[string]*codegen.CAction

	// Storage resolved to dense slots. Register slots are the layout's
	// materialized instances; field slots are added on first access.
	// fieldByName is their identity — two accesses share a slot exactly
	// when they render the same storage key — and srcFields/tgtFields
	// remember each access's slot so the key is rendered once. The
	// target side's accesses are CFieldRef nodes, which pin their
	// instance, so the node pointer identifies them.
	regs        []regSlot
	regByKey    map[regKey]int32
	fields      []fieldSlot
	fieldByName map[fieldName]int32
	srcFields   map[sem.Field]int32
	tgtFields   map[*codegen.CFieldRef]int32

	// The two execution sides, each with the walker domain that runs
	// source-side code on it, and the run generation that stamps their
	// live slots and the decisions recorded on nodes.
	src, tgt     pathState
	srcEv, tgtEv evalCtx
	gen          uint64

	// Path enumeration: free decisions are made depth-first (true
	// first); script re-makes a prefix with the deepest unexplored
	// branch flipped. consulted[i] is the highest decision index the
	// target read while executing step i (-1: none) — the target's
	// outcome up to a step depends on no other decision.
	script    []bool
	taken     []decision
	consulted []int32
	decisions int
	pruned    int
	replayed  int // schedule steps the enumerated paths span from the root, both sides
	executed  int // schedule steps actually executed, both sides

	pathBudget     int
	decisionBudget int

	// Concrete mode: packet inputs bound to per-trial constants and
	// initial register cells to zero, turning both executions into
	// straight-line constant folding.
	concrete bool
	trial    uint64
}

func newMachine(u *lang.Unit, layout *ilpgen.Layout, prog *codegen.Concrete, pathBudget, decisionBudget int) (*machine, *failure) {
	m := &machine{
		t:              newSymtab(),
		u:              u,
		layout:         layout,
		prog:           prog,
		actions:        make(map[string]*codegen.CAction, len(prog.Actions)),
		regByKey:       make(map[regKey]int32, len(layout.Registers)),
		fieldByName:    make(map[fieldName]int32),
		srcFields:      make(map[sem.Field]int32),
		tgtFields:      make(map[*codegen.CFieldRef]int32),
		pathBudget:     pathBudget,
		decisionBudget: decisionBudget,
	}
	counts := dep.Counts{}
	for _, l := range u.Loops {
		counts[l.Sym] = int(layout.Symbolics[l.Sym.Name])
	}
	placed := make(map[string]bool, len(layout.Placements))
	for _, pl := range layout.Placements {
		placed[pl.Name] = true
	}
	instances := dep.Enumerate(u, counts)
	seen := make(map[string]bool, len(instances))
	for _, in := range instances {
		name := in.Name()
		if seen[name] {
			return nil, &failure{Kind: "unsupported", Detail: fmt.Sprintf("duplicate instance name %s (repeated invocation of one action)", name)}
		}
		seen[name] = true
		a := in.Inv.Action
		if a.Decl != nil && a.Decl.Body != nil && !placed[name] {
			return nil, &failure{Kind: "instance-unplaced", Detail: fmt.Sprintf("instance %s required by the assignment has no placement", name)}
		}
	}
	for i := range prog.Actions {
		m.actions[prog.Actions[i].Name] = &prog.Actions[i]
	}
	for _, rp := range layout.Registers {
		k := regKey{rp.Register, int64(rp.Index)}
		if slot, dup := m.regByKey[k]; dup {
			m.regs[slot].cells = rp.Cells
			continue
		}
		m.regByKey[k] = int32(len(m.regs))
		m.regs = append(m.regs, regSlot{regKey: k, cells: rp.Cells})
	}
	if f := m.buildSteps(); f != nil {
		return nil, f
	}
	stages := len(layout.Stages)
	m.src = newPathState(len(m.regs), stages, len(m.steps))
	m.tgt = newPathState(len(m.regs), stages, len(m.steps))
	m.srcEv = evalCtx{m: m, st: &m.src, src: true}
	m.tgtEv = evalCtx{m: m, st: &m.tgt}
	m.consulted = make([]int32, len(m.steps))
	return m, nil
}

// buildSteps takes the canonical schedule (sem.Schedule) and
// reconciles the emitted apply block against it in lockstep: every
// table match and every directly-invoked action must appear at its
// scheduled position and stage, table-dispatched actions must be
// absent, and nothing may trail. A dropped, reordered, or restaged
// apply step is therefore an obligation before any path runs.
func (m *machine) buildSteps() *failure {
	tableOfMatch := make(map[string]*lang.TableInfo, len(m.u.Tables))
	tableActions := make(map[string]bool)
	for _, tbl := range m.u.Tables {
		tableOfMatch[tbl.Match.Name] = tbl
		for _, a := range tbl.Actions {
			tableActions[a.Name] = true
		}
	}
	order, steps := sem.Schedule(m.u, m.layout)
	applyIdx, next := 0, 0
	for i, pl := range order {
		if tbl, ok := tableOfMatch[pl.Action]; ok {
			if f := m.expectApply(applyIdx, tbl.Name, "", pl.Stage); f != nil {
				return f
			}
			applyIdx++
			continue
		}
		if next == len(steps) || steps[next].Pos != i {
			continue // no body
		}
		name := codegen.InstanceName(pl.Action, pl.Iter)
		s := tvStep{Step: steps[next], caction: m.actions[name]}
		next++
		if !tableActions[pl.Action] {
			if f := m.expectApply(applyIdx, "", name, pl.Stage); f != nil {
				return f
			}
			s.hasApply = true
			s.guards = m.prog.Apply[applyIdx].Guards
			applyIdx++
		}
		m.steps = append(m.steps, s)
	}
	if applyIdx != len(m.prog.Apply) {
		extra := m.prog.Apply[applyIdx]
		return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: %s not in the layout schedule", applyIdx, applyStepName(extra))}
	}
	return nil
}

// expectApply checks that apply entry i is the scheduled table or
// action at the scheduled stage.
func (m *machine) expectApply(i int, table, action string, stage int) *failure {
	want := codegen.CApplyStep{Table: table, Action: action, Stage: stage}
	if i >= len(m.prog.Apply) {
		return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: expected %s at stage %d, apply block ends early", i, applyStepName(want), stage)}
	}
	got := m.prog.Apply[i]
	if got.Table != table || got.Action != action || got.Stage != stage {
		return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: expected %s at stage %d, found %s at stage %d", i, applyStepName(want), stage, applyStepName(got), got.Stage)}
	}
	return nil
}

func applyStepName(s codegen.CApplyStep) string {
	if s.Table != "" {
		return "table " + s.Table
	}
	return "action " + s.Action
}

// fieldSlotOf returns the storage slot of a rendered field key,
// creating it on the key's first access from either side.
func (m *machine) fieldSlotOf(name fieldName) int32 {
	slot, ok := m.fieldByName[name]
	if !ok {
		slot = int32(len(m.fields))
		m.fieldByName[name] = slot
		m.fields = append(m.fields, fieldSlot{fieldName: name})
		m.src.fields = append(m.src.fields, entry{})
		m.tgt.fields = append(m.tgt.fields, entry{})
	}
	return slot
}

// inVar is the packet input for a header slot: a free symbolic variable
// normally, a deterministic per-trial constant in concrete mode.
func (m *machine) inVar(f *fieldSlot) *node {
	if m.concrete {
		return m.t.constant(concreteInput(f.key, m.trial))
	}
	if f.in == nil {
		f.in = m.t.in(f.key)
	}
	return f.in
}

// concreteInput is the value concrete mode gives header field key in a
// trial.
func concreteInput(key string, trial uint64) uint64 {
	return structures.Hash(fnv1a(key), trial)
}

// evalCtx is one side's evaluation context: the symbolic domain of the
// shared walker (sem.Domain[*node]) and the leaves evalC uses on the
// emitted program.
type evalCtx struct {
	m     *machine
	st    *pathState
	src   bool
	stage int
}

func (ev *evalCtx) Const(v uint64) *node { return ev.m.t.constant(v) }

// Charge counts one ALU operation in the step's stage.
func (ev *evalCtx) Charge() {
	if ev.stage >= 0 && ev.stage < len(ev.st.alu) {
		ev.st.alu[ev.stage]++
	}
}

// Decide resolves a branch condition ("is this value nonzero?").
// Constant and interval-decided conditions never fork. On the source
// side an undetermined condition becomes a free decision (scripted by
// the DFS); on the target side it must already be determined by the
// source path's decisions, otherwise the branch alignment is a
// residual obligation. Each target read of a decision is recorded
// against the target step that makes it (consulted), which is what lets
// a backtrack keep the target steps that read only earlier decisions.
func (ev *evalCtx) Decide(n *node) (bool, error) {
	m, st := ev.m, ev.st
	if n.isConst() {
		return n.val != 0, nil
	}
	if n.lo >= 1 {
		st.pruned++
		return true, nil
	}
	if n.hi == 0 {
		st.pruned++
		return false, nil
	}
	if n.stamp == m.gen {
		if !ev.src && n.dec > m.consulted[st.next] {
			m.consulted[st.next] = n.dec
		}
		return n.taken, nil
	}
	if !ev.src {
		return false, &obligErr{kind: "unaligned-branch", detail: "emitted program branches on a condition the source never decided: " + nodeString(n, 4)}
	}
	var v bool
	if len(m.taken) < len(m.script) {
		v = m.script[len(m.taken)]
	} else {
		v = true
		m.decisions++
		if m.decisions > m.decisionBudget {
			return false, &obligErr{kind: "decision-budget", detail: fmt.Sprintf("more than %d branch decisions", m.decisionBudget)}
		}
	}
	n.stamp, n.taken, n.dec = m.gen, v, int32(len(m.taken))
	m.taken = append(m.taken, decision{v: v, step: st.next, n: n})
	return v, nil
}

func (ev *evalCtx) Unary(op lang.Kind, x *node, w int) *node {
	if op == lang.NOT {
		return ev.m.t.not(x)
	}
	return ev.m.t.mask(ev.m.t.neg(x), w)
}

// Binary applies a binary operator; a symbolic divisor is a decision
// between the abort and the quotient.
func (ev *evalCtx) Binary(op lang.Kind, x, y *node, w int) (*node, error) {
	t := ev.m.t
	switch op {
	case lang.AND, lang.OR:
		// The walker decided x and did not short-circuit.
		return t.boolish(y), nil
	case lang.SLASH, lang.PCT:
		zero := y.isConst() && y.val == 0
		if !y.isConst() {
			var err error
			if zero, err = ev.Decide(t.bin(lang.EQ, y, t.constant(0))); err != nil {
				return nil, err
			}
		}
		if zero {
			return nil, &abortErr{reason: sem.DivisorErr(op).Error()}
		}
	case lang.PLUS, lang.MINUS, lang.STAR, lang.LT, lang.LE, lang.GT, lang.GE, lang.EQ, lang.NE:
	default:
		return nil, &abortErr{reason: fmt.Sprintf("unsupported operator %s", op)}
	}
	return t.mask(t.bin(op, x, y), w), nil
}

func (ev *evalCtx) Builtin(name string, x, y *node) *node { return ev.m.t.call(name, x, y) }

// Index requires a statically known instance index. The interpreter
// can chase dynamic instance indexes at runtime, but the generated
// program cannot (codegen pins instances at compile time), so a dynamic
// index is an obligation, not an abort.
func (ev *evalCtx) Index(v *node, what string) (uint64, error) {
	if !v.isConst() {
		return 0, &obligErr{kind: "unsupported", detail: "dynamic " + what + " index"}
	}
	return v.val, nil
}

// regArr is the current array value of a register slot on one side:
// the last store of this path, else the opaque initial contents.
func (m *machine) regArr(st *pathState, slot int32) *node {
	if c := st.regs[slot]; c.stamp == m.gen {
		return c.n
	}
	r := &m.regs[slot]
	if r.init == nil {
		r.init = m.t.arrInit(r.name, r.inst)
	}
	return r.init
}

// RegRead is the interpreter's register load: unmaterialized instances
// read as zero without a stats charge; materialized reads wrap the cell
// index at the extent and count one RegRead.
func (ev *evalCtx) RegRead(name string, inst int64, cell *node, width int) *node {
	slot, ok := ev.m.regByKey[regKey{name, inst}]
	if !ok {
		return ev.m.t.constant(0)
	}
	c := ev.m.t.wrapCell(cell, ev.m.regs[slot].cells)
	v := ev.m.t.sel(ev.m.regArr(ev.st, slot), c, width)
	if ev.m.concrete && v.kind == kSelect {
		v = ev.m.t.constant(0) // fresh pipeline: cells start at zero
	}
	ev.st.regReads++
	return v
}

// RegWrite is the interpreter's register store: a no-op on
// unmaterialized instances, otherwise a width-masked functional store
// and one RegWrite.
func (ev *evalCtx) RegWrite(name string, inst int64, cell, val *node, width int) {
	slot, ok := ev.m.regByKey[regKey{name, inst}]
	if !ok {
		return
	}
	c := ev.m.t.wrapCell(cell, ev.m.regs[slot].cells)
	arr := ev.m.t.store(ev.m.regArr(ev.st, slot), c, ev.m.t.mask(val, width))
	ev.st.undo = append(ev.st.undo, undoRec{reg: true, slot: slot, old: ev.st.regs[slot]})
	ev.st.regs[slot] = entry{arr, ev.m.gen}
	ev.st.regWrites++
}

// srcSlot returns the storage slot of a source-side field access.
func (m *machine) srcSlot(f sem.Field) int32 {
	slot, ok := m.srcFields[f]
	if !ok {
		slot = m.fieldSlotOf(fieldName{header: f.Header, key: f.Key()})
		m.srcFields[f] = slot
	}
	return slot
}

func (ev *evalCtx) FieldRead(f sem.Field) *node { return ev.fieldRead(ev.m.srcSlot(f), f.Width) }

func (ev *evalCtx) FieldWrite(f sem.Field, v *node) { ev.fieldWrite(ev.m.srcSlot(f), v, f.Width) }

// fieldRead loads a header or metadata field: the value this path
// wrote, else the packet input (headers, masked to the field) or zero
// (metadata).
func (ev *evalCtx) fieldRead(slot int32, width int) *node {
	f := &ev.m.fields[slot]
	c := ev.st.fields[slot]
	written := c.stamp == ev.m.gen
	if f.header {
		if !written {
			c.n = ev.m.inVar(f)
		}
		return ev.m.t.mask(c.n, width)
	}
	if !written {
		c.n = ev.m.t.constant(0)
	}
	return c.n
}

// fieldWrite stores a value masked to the field's width.
func (ev *evalCtx) fieldWrite(slot int32, v *node, width int) {
	ev.st.undo = append(ev.st.undo, undoRec{slot: slot, old: ev.st.fields[slot]})
	ev.st.fields[slot] = entry{ev.m.t.mask(v, width), ev.m.gen}
}

func (ev *evalCtx) Abort(reason string) error { return &abortErr{reason: reason} }

// ---------- source side: the elastic program under the assignment ----------

// runSource executes the canonical schedule over the source AST from
// the source side's next step to the end. A packet abort is recorded in
// st.aborted (not returned); residual obligations are returned, with
// st.next at the step that raised them.
func (m *machine) runSource() error {
	st := &m.src
	for ; st.aborted == "" && st.next < len(m.steps); st.next++ {
		s := &m.steps[st.next]
		st.save(st.next, len(m.taken))
		m.executed++
		m.srcEv.stage = s.Stage
		if err := sem.Exec[*node](&m.srcEv, m.u, m.layout.Symbolics, &s.Step); err != nil {
			ab, isAbort := err.(*abortErr)
			if !isAbort {
				return err
			}
			st.aborted = ab.reason
		}
	}
	return nil
}

// ---------- target side: the emitted concrete program ----------

// guardsC evaluates apply-block guard conditions, one decision per
// guard, stopping at the first false.
func (ev *evalCtx) guardsC(guards []codegen.CExpr) (bool, error) {
	for _, g := range guards {
		v, err := ev.evalC(g)
		if err != nil {
			return false, err
		}
		take, err := ev.Decide(v.n)
		if err != nil {
			return false, err
		}
		if !take {
			return false, nil
		}
	}
	return true, nil
}

// runTarget executes the same canonical schedule over the emitted
// program with the same interpreter semantics: guards from the apply
// block (or, for table-dispatched actions, replayed from the
// invocation by the shared walker — the emitted text leaves them to the
// table's match), bodies from the emitted actions, charged at the stage
// each action was emitted for. Branch conditions must be determined by
// the source path's decisions (plus intervals/constants); the target
// makes no free decisions of its own. Like runSource it resumes at the
// side's next step.
func (m *machine) runTarget() error {
	st := &m.tgt
	for ; st.aborted == "" && st.next < len(m.steps); st.next++ {
		s := &m.steps[st.next]
		st.save(st.next, 0)
		m.consulted[st.next] = -1
		m.executed++
		if s.caction == nil {
			return &obligErr{kind: "unknown-action", detail: fmt.Sprintf("emitted program lacks action %s", codegen.InstanceName(s.Inv.Action.Name, s.Iter))}
		}
		var pass bool
		var err error
		if s.hasApply {
			ev := evalCtx{m: m, st: st, stage: s.Stage}
			pass, err = ev.guardsC(s.guards)
		} else {
			m.tgtEv.stage = s.Stage
			pass, err = sem.Guards[*node](&m.tgtEv, m.u, m.layout.Symbolics, &s.Step)
		}
		if err == nil && pass {
			bodyEv := evalCtx{m: m, st: st, stage: s.caction.Stage}
			for _, stmt := range s.caction.Body {
				if err = bodyEv.stmtC(stmt); err != nil {
					break
				}
			}
		}
		if err != nil {
			ab, isAbort := err.(*abortErr)
			if !isAbort {
				return err
			}
			st.aborted = ab.reason
		}
	}
	return nil
}

func (ev *evalCtx) stmtC(s codegen.CStmt) error {
	switch s := s.(type) {
	case *codegen.CAssign:
		v, err := ev.evalC(s.RHS)
		if err != nil {
			return err
		}
		return ev.assignC(s.LHS, v)
	case *codegen.CIf:
		c, err := ev.evalC(s.Cond)
		if err != nil {
			return err
		}
		take, err := ev.Decide(c.n)
		if err != nil {
			return err
		}
		body := s.Then
		if !take {
			if !s.HasElse {
				return nil
			}
			body = s.Else
		}
		for _, inner := range body {
			if err := ev.stmtC(inner); err != nil {
				return err
			}
		}
		return nil
	default:
		return &obligErr{kind: "unsupported", detail: "elided statement in emitted program"}
	}
}

func (ev *evalCtx) evalC(e codegen.CExpr) (sv, error) {
	switch e := e.(type) {
	case *codegen.CInt:
		return sv{ev.m.t.constant(uint64(e.Value)), 0}, nil
	case *codegen.CBool:
		return sv{ev.m.t.boolConst(e.Value), 0}, nil
	case *codegen.CUnary:
		x, err := ev.evalC(e.X)
		if err != nil {
			return sv{}, err
		}
		ev.Charge()
		switch e.Op {
		case lang.MINUS:
			return sv{ev.Unary(e.Op, x.n, x.w), x.w}, nil
		case lang.NOT:
			return sv{ev.Unary(e.Op, x.n, 0), 0}, nil
		}
		return sv{}, &abortErr{reason: fmt.Sprintf("unsupported unary %s", e.Op)}
	case *codegen.CBinary:
		x, err := ev.evalC(e.X)
		if err != nil {
			return sv{}, err
		}
		if e.Op == lang.AND || e.Op == lang.OR {
			nz, err := ev.Decide(x.n)
			if err != nil {
				return sv{}, err
			}
			if nz != (e.Op == lang.AND) {
				return sv{ev.m.t.boolConst(nz), 0}, nil
			}
		}
		y, err := ev.evalC(e.Y)
		if err != nil {
			return sv{}, err
		}
		ev.Charge()
		w := sem.OpWidth(e.Op, x.w, y.w)
		n, err := ev.Binary(e.Op, x.n, y.n, w)
		return sv{n, w}, err
	case *codegen.CCall:
		x, err := ev.evalC(e.Args[0])
		if err != nil {
			return sv{}, err
		}
		y, err := ev.evalC(e.Args[1])
		if err != nil {
			return sv{}, err
		}
		ev.Charge()
		return sv{ev.Builtin(e.Name, x.n, y.n), sem.CallWidth(e.Name, x.w, y.w)}, nil
	case *codegen.CRegRef:
		cell, err := ev.evalC(e.Idx)
		if err != nil {
			return sv{}, err
		}
		return sv{ev.RegRead(e.Reg, e.Inst, cell.n, e.Width), e.Width}, nil
	case *codegen.CFieldRef:
		slot, err := ev.fieldSlotC(e)
		if err != nil {
			return sv{}, err
		}
		return sv{ev.fieldRead(slot, e.Width), e.Width}, nil
	case *codegen.CName:
		return sv{}, &abortErr{reason: "unknown name " + e.Name}
	default:
		return sv{}, &obligErr{kind: "unsupported", detail: "unmodeled expression in emitted program"}
	}
}

func (ev *evalCtx) fieldSlotC(e *codegen.CFieldRef) (int32, error) {
	if e.Elastic && e.Index < 0 {
		return 0, &obligErr{kind: "unsupported", detail: fmt.Sprintf("elastic field %s.%s emitted without an instance", e.Struct, e.Field)}
	}
	slot, ok := ev.m.tgtFields[e]
	if !ok {
		name := fieldName{header: e.Header, key: e.Struct + "." + e.Field}
		if e.Elastic {
			name.key = sem.InstKey(name.key, uint64(e.Index))
		}
		slot = ev.m.fieldSlotOf(name)
		ev.m.tgtFields[e] = slot
	}
	return slot, nil
}

func (ev *evalCtx) assignC(lhs codegen.CExpr, v sv) error {
	switch e := lhs.(type) {
	case *codegen.CRegRef:
		cell, err := ev.evalC(e.Idx)
		if err != nil {
			return err
		}
		ev.RegWrite(e.Reg, e.Inst, cell.n, v.n, e.Width)
		return nil
	case *codegen.CFieldRef:
		slot, err := ev.fieldSlotC(e)
		if err != nil {
			return err
		}
		ev.fieldWrite(slot, v.n, e.Width)
		return nil
	default:
		return &obligErr{kind: "unsupported", detail: "unmodeled assignment target in emitted program"}
	}
}

// ---------- path enumeration and comparison ----------

// equivResult summarizes the equivalence run.
type equivResult struct {
	Paths          int
	PathsProved    int
	Decisions      int
	Pruned         int
	Fallbacks      int
	Samples        int
	Counterexample string
	Failures       map[failure]int // per-failure path counts
	StepsReplayed  int             // schedule steps the enumerated paths span from the root, both sides
	StepsExecuted  int             // schedule steps actually executed, both sides
	Nodes          int             // interned DAG size at the end of the run
}

// runEquivalence enumerates every feasible source path, runs the target
// under the same decisions, and compares the outcomes. Each path after
// the first resumes both sides at step checkpoints (backtrack) instead
// of replaying from the root. Residual obligations trigger the concrete
// fallback search; nothing passes silently.
func runEquivalence(m *machine, samples int) *equivResult {
	res := &equivResult{Failures: make(map[failure]int)}
	m.beginRun()
	for {
		if res.Paths >= m.pathBudget {
			res.Failures[failure{Kind: "path-budget", Detail: fmt.Sprintf("more than %d paths", m.pathBudget)}]++
			break
		}
		res.Paths++
		fails := m.runPath()
		if len(fails) == 0 {
			res.PathsProved++
		}
		for _, f := range fails {
			res.Failures[f]++
		}
		k := m.deepestTrue()
		if k < 0 {
			break
		}
		m.backtrack(k)
	}
	res.Decisions = m.decisions
	res.Pruned = m.pruned
	res.StepsReplayed, res.StepsExecuted = m.replayed, m.executed
	if len(res.Failures) > 0 {
		res.Fallbacks = len(res.Failures)
		res.Samples = samples
		res.Counterexample = m.concreteSearch(samples)
	}
	res.Nodes = m.t.seq
	return res
}

// beginRun starts a fresh packet on both sides at the first step: the
// generation bump empties every storage slot and forgets every recorded
// decision.
func (m *machine) beginRun() {
	m.gen++
	m.taken = m.taken[:0]
	m.script = m.script[:0]
	m.src.restart()
	m.tgt.restart()
}

// deepestTrue is the current path's last decision taken true — the one
// the next path flips, depth-first — or -1 when the enumeration is done.
func (m *machine) deepestTrue() int {
	k := len(m.taken) - 1
	for k >= 0 && !m.taken[k].v {
		k--
	}
	return k
}

// backtrack sets both sides up for the next path: the current path's
// decisions before k, then decision k false. Neither side re-executes a
// step whose outcome that shared prefix already fixes.
//
// The source resumes at the step that made decision k. Its earlier steps
// made and read only earlier decisions, so they stand; the decisions
// made from that step on are forgotten (their nodes un-stamped) and the
// script re-makes them up to the flipped one.
//
// The target makes no decisions: a target step's outcome is fixed by the
// state it starts from and the decisions it reads (consulted). It
// resumes at the first step it ran that read decision k or a later one;
// if none did, what it has done stands, a finished or aborted run
// included. A target stopped by an obligation was already rolled back to
// that step (runPath), so it retries the step.
func (m *machine) backtrack(k int) {
	step := m.taken[k].step
	m.src.rollback(step)
	m.script = m.script[:0]
	for _, d := range m.taken[:k] {
		m.script = append(m.script, d.v)
	}
	m.script = append(m.script, false)
	from := m.src.ckpts[step].taken
	for _, d := range m.taken[from:] {
		d.n.stamp = 0
	}
	m.taken = m.taken[:from]
	for i := 0; i < m.tgt.next; i++ {
		if int(m.consulted[i]) >= k {
			m.tgt.rollback(i)
			break
		}
	}
}

// runPath runs the current path to its end, each side from where
// backtrack left it, and returns the path's failures (empty means the
// path's obligations discharged). The target runs only once the source
// finished without an obligation.
func (m *machine) runPath() []failure {
	err := m.runSource()
	m.tally(&m.src, err)
	if err == nil {
		err = m.runTarget()
		m.tally(&m.tgt, err)
		if err != nil {
			m.tgt.rollback(m.tgt.next) // retried on the next path
		}
	}
	if err != nil {
		oe := err.(*obligErr)
		return []failure{{Kind: oe.kind, Detail: oe.detail}}
	}
	return m.compare()
}

// tally adds one side's share of a finished path to the run's counts:
// the interval-decided conditions it met and the steps it spans from the
// root, through the step an obligation stopped it in. Both are what
// replaying the path from the root would count, so the certificate's
// pruned_decisions does not depend on how much of the path was shared.
func (m *machine) tally(st *pathState, err error) {
	m.pruned += st.pruned
	m.replayed += st.next
	if err != nil {
		m.replayed++
	}
}

// compare discharges the per-path equivalence obligations.
func (m *machine) compare() []failure {
	src, tgt := &m.src, &m.tgt
	var fails []failure
	if src.aborted != "" || tgt.aborted != "" {
		if src.aborted != tgt.aborted {
			fails = append(fails, failure{
				Kind:   "abort-divergence",
				Detail: fmt.Sprintf("source abort %q vs emitted abort %q", src.aborted, tgt.aborted),
			})
		}
		// Register writes made before the abort persist; outputs are
		// not produced, so only state and stats remain comparable.
	} else {
		fails = m.compareFields(fails)
	}
	fails = m.compareRegs(fails)
	return compareStats(fails, src, tgt)
}

// compareFields checks that both sides wrote the same header and
// metadata fields with the same values. Mismatches are reported headers
// first, each group in storage-key order.
func (m *machine) compareFields(fails []failure) []failure {
	var bad []int
	for i := range m.fields {
		a, b := m.src.fields[i], m.tgt.fields[i]
		okA, okB := a.stamp == m.gen, b.stamp == m.gen
		if okA != okB || okA && a.n != b.n {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return fails
	}
	sort.Slice(bad, func(i, j int) bool {
		x, y := &m.fields[bad[i]], &m.fields[bad[j]]
		if x.header != y.header {
			return x.header
		}
		return x.key < y.key
	})
	for _, i := range bad {
		f := &m.fields[i]
		kind := "metadata-mismatch"
		if f.header {
			kind = "header-mismatch"
		}
		switch {
		case m.src.fields[i].stamp != m.gen:
			fails = append(fails, failure{Kind: kind, Detail: fmt.Sprintf("%s written only by the emitted program", f.key)})
		case m.tgt.fields[i].stamp != m.gen:
			fails = append(fails, failure{Kind: kind, Detail: fmt.Sprintf("%s written only by the source", f.key)})
		default:
			fails = append(fails, failure{Kind: kind, Detail: fmt.Sprintf("%s differs between source and emitted program", f.key)})
		}
	}
	return fails
}

// compareRegs checks the final array value of every register instance
// either side wrote; mismatches are reported in (name, instance) order.
func (m *machine) compareRegs(fails []failure) []failure {
	var bad []int32
	for i := range m.regs {
		slot := int32(i)
		if m.src.regs[i].stamp != m.gen && m.tgt.regs[i].stamp != m.gen {
			continue
		}
		na, nb := m.regArr(&m.src, slot), m.regArr(&m.tgt, slot)
		if m.concrete {
			na = m.concreteArr(na)
			nb = m.concreteArr(nb)
		}
		if na != nb {
			bad = append(bad, slot)
		}
	}
	if len(bad) == 0 {
		return fails
	}
	sort.Slice(bad, func(i, j int) bool {
		x, y := &m.regs[bad[i]], &m.regs[bad[j]]
		if x.name != y.name {
			return x.name < y.name
		}
		return x.inst < y.inst
	})
	for _, slot := range bad {
		r := &m.regs[slot]
		fails = append(fails, failure{Kind: "register-mismatch", Detail: fmt.Sprintf("final state of %s/%d differs", r.name, r.inst)})
	}
	return fails
}

// concreteArr normalizes a concrete store chain: redundant stores of
// the same constant cell collapse to the last one, and cells are
// ordered, so equal concrete register contents compare equal even when
// the two sides wrote in different (commuting) orders.
func (m *machine) concreteArr(arr *node) *node {
	cells := map[uint64]*node{}
	a := arr
	for a.kind == kStore {
		idx, val := a.args[1], a.args[2]
		if !idx.isConst() || !val.isConst() {
			return arr // not fully concrete; compare structurally
		}
		if _, ok := cells[idx.val]; !ok {
			cells[idx.val] = val
		}
		a = a.args[0]
	}
	idxs := make([]uint64, 0, len(cells))
	for i := range cells {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := a
	for _, i := range idxs {
		out = m.t.store(out, m.t.constant(i), cells[i])
	}
	return out
}

func compareStats(fails []failure, src, tgt *pathState) []failure {
	if src.regReads != tgt.regReads {
		fails = append(fails, failure{Kind: "stats-mismatch", Detail: fmt.Sprintf("RegReads %d vs %d", src.regReads, tgt.regReads)})
	}
	if src.regWrites != tgt.regWrites {
		fails = append(fails, failure{Kind: "stats-mismatch", Detail: fmt.Sprintf("RegWrites %d vs %d", src.regWrites, tgt.regWrites)})
	}
	for i := range src.alu {
		if src.alu[i] != tgt.alu[i] {
			fails = append(fails, failure{Kind: "stats-mismatch", Detail: fmt.Sprintf("ALUOps[stage %d] %d vs %d", i, src.alu[i], tgt.alu[i])})
		}
	}
	return fails
}

// concreteSearch replays both sides on deterministic pseudo-random
// concrete packets (zeroed registers), looking for a concrete witness
// of divergence. It returns a description of the first counterexample
// found, or "" if sampling found none (the verdict stays failed — an
// undischarged obligation is never a pass).
func (m *machine) concreteSearch(samples int) string {
	defer func() { m.concrete = false }()
	m.concrete = true
	for trial := 1; trial <= samples; trial++ {
		m.trial = uint64(trial)
		m.beginRun()
		if err := m.runSource(); err != nil {
			continue // unsupported constructs stay symbolic obligations
		}
		if err := m.runTarget(); err != nil {
			continue
		}
		if fails := m.compare(); len(fails) > 0 {
			return fmt.Sprintf("trial %d: %s: %s", trial, fails[0].Kind, fails[0].Detail)
		}
	}
	return ""
}
