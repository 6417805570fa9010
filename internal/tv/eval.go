package tv

import (
	"fmt"
	"slices"
	"sort"

	"p4all/internal/codegen"
	"p4all/internal/dep"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
	"p4all/internal/structures"
)

// This file implements the equivalence half of the validator: a
// bounded symbolic execution of (a) the elastic source under the solved
// symbolic assignment and (b) the emitted P4 text, parsed back, both
// over a shared symbolic packet and register file, both walking the
// layout's canonical schedule (ilpgen.Layout.Steps): placed instances in
// (stage, program order of the action's first invocation, iteration)
// order, the step list internal/sim executes. Both sides run the walker
// of internal/sem, the one evaluator the reference interpreter also
// runs, over symbolic nodes: evalCtx is its domain. The target side
// takes guards, bodies and widths from the text, whose apply block,
// @stage annotations and register declarations are checked against the
// layout at setup (a dropped, reordered or restaged step is an
// obligation before any path runs). The legality of the schedule
// itself, that the solver's reordering of the program respects every
// dependency, is the audit's job (Prec/Excl re-derivation).
//
// Per path it discharges header-output, metadata-output,
// register-state, Stats-counter, and abort-behavior equivalence. The
// domain decides what the shared walker leaves open: a branch on a
// symbolic condition forks the path enumeration, and a zero divisor
// aborts. Which instance a reference selects is no decision of either
// side: both read the resolver's binding (lang.Ref).

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
	cells  int64
	stages []int
	init   *node // opaque initial contents, interned on first use
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
// charges (pathState.ckALU).
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
	alu       []pisa.ActionProfile // charges by stage
	aborted   string               // abort reason; empty while running
	pruned    int                  // interval-decided conditions this path has met on this side

	next  int                  // next schedule step to execute; the steps before it are done
	undo  []undoRec            // slot overwrites since the run began, oldest first
	ckpts []checkpoint         // by schedule step: this side's state as the step began
	ckALU []pisa.ActionProfile // by schedule step: len(alu) charges as the step began
}

func newPathState(regs, stages, steps int) pathState {
	return pathState{
		regs:  make([]entry, regs),
		alu:   make([]pisa.ActionProfile, stages),
		ckpts: make([]checkpoint, steps),
		ckALU: make([]pisa.ActionProfile, steps*stages),
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

// tvStep is one slot of the canonical execution schedule: the source
// step and the text's step that runs in its place.
type tvStep struct {
	sem.Step
	// tgt runs the text's action at its @stage. For an action with its
	// own apply-block entry, tgt.Inv is that entry, guards and all; a
	// table-dispatched action has none (the text leaves its guards to
	// the table's match), so the target replays the source invocation's
	// guards (hasApply false) before an unguarded tgt.
	tgt      sem.Step
	hasApply bool
}

// machine drives the two-sided symbolic execution.
type machine struct {
	t      *symtab
	u      *lang.Unit
	tu     *lang.Unit // the emitted text, parsed
	layout *ilpgen.Layout

	steps []tvStep

	// Storage resolved to dense slots. Register slots are the layout's
	// materialized instances, named by (register, instance) on the
	// source and by their declaration in the text (tgtRegs); field
	// slots are added on first access. fieldByName is their identity —
	// two accesses share a slot exactly when they resolve to the same
	// source storage key, a text field to the key of the source field
	// instance it names (textKeys) — and fieldSlots remembers each
	// access's slot so the key is resolved once.
	regs        []regSlot
	regByKey    map[regKey]int32
	tgtRegs     map[string]int32
	fields      []fieldSlot
	fieldByName map[fieldName]int32
	fieldSlots  map[sem.Field]int32
	textKeys    map[string]string

	// The two execution sides, each with the walker domain that runs
	// its program (the source, the text) on it, and the run generation
	// that stamps their live slots and the decisions recorded on nodes.
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

// newMachine sets up the equivalence run of source u under layout
// against the emitted text. A text that does not parse and resolve, or
// whose declarations or apply block disagree with the layout, is a
// failure before any path runs.
func newMachine(u *lang.Unit, layout *ilpgen.Layout, text string, pathBudget, decisionBudget int) (*machine, *failure) {
	tu, err := lang.ParseAndResolve(text)
	if err != nil {
		return nil, &failure{Kind: "unparsable-text", Detail: err.Error()}
	}
	m := &machine{
		t:              newSymtab(),
		u:              u,
		tu:             tu,
		layout:         layout,
		regByKey:       make(map[regKey]int32, len(layout.Registers)),
		tgtRegs:        make(map[string]int32, len(layout.Registers)),
		fieldByName:    make(map[fieldName]int32),
		fieldSlots:     make(map[sem.Field]int32),
		textKeys:       make(map[string]string),
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
	for _, rp := range layout.Registers {
		k := regKey{rp.Register, int64(rp.Index)}
		if slot, dup := m.regByKey[k]; dup {
			m.regs[slot].cells, m.regs[slot].stages = rp.Cells, rp.Stages
			continue
		}
		m.regByKey[k] = int32(len(m.regs))
		m.tgtRegs[codegen.InstanceName(rp.Register, rp.Index)] = int32(len(m.regs))
		m.regs = append(m.regs, regSlot{regKey: k, cells: rp.Cells, stages: rp.Stages})
	}
	if f := m.bindText(); f != nil {
		return nil, f
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

// bindText binds the text's declarations to the layout's storage: the
// registers declared must be the materialized instances, under their
// instance names, with the layout's cells and @stage lists; a field is
// keyed as the source field instance it names (codegen.InstanceName).
func (m *machine) bindText() *failure {
	for _, tr := range m.tu.Registers {
		slot, ok := m.tgtRegs[tr.Name]
		if !ok {
			return &failure{Kind: "declaration-mismatch", Detail: fmt.Sprintf("register %s is no instance of the layout", tr.Name)}
		}
		r := &m.regs[slot]
		if tr.Decl.Count != nil || tr.Cells.Const != r.cells {
			return &failure{Kind: "declaration-mismatch", Detail: fmt.Sprintf("register %s declares %s cells, the layout %d", tr.Name, lang.PrintExpr(tr.Decl.Cells), r.cells)}
		}
		if f := stageCheck("register "+tr.Name, tr.Decl.Stages, r.stages); f != nil {
			return f
		}
	}
	if len(m.tu.Registers) != len(m.tgtRegs) {
		return &failure{Kind: "declaration-mismatch", Detail: fmt.Sprintf("%d registers declared, the layout materializes %d", len(m.tu.Registers), len(m.tgtRegs))}
	}
	for _, si := range m.u.Structs {
		for _, f := range si.Fields {
			if !f.Elastic() {
				continue
			}
			n := f.Count.Const
			if f.Count.IsSymbolic() {
				n = m.layout.Symbolics[f.Count.Sym.Name]
			}
			for i := range n {
				m.textKeys[si.Name+"."+codegen.InstanceName(f.Name, int(i))] = sem.InstKey(f.Qual(), uint64(i))
			}
		}
	}
	return nil
}

// stageCheck checks a declaration's @stage list against the layout's.
func stageCheck(what string, got, want []int) *failure {
	if slices.Equal(got, want) {
		return nil
	}
	return &failure{Kind: "stage-mismatch", Detail: fmt.Sprintf("%s: @stage%v in the text, stages %v in the layout", what, got, want)}
}

// buildSteps takes the canonical schedule (ilpgen.Layout.Steps) and
// reconciles the text's apply block against it in lockstep: every
// table apply and every directly-invoked action must appear at its
// scheduled position, unguarded tables and actions at their scheduled
// @stage, table-dispatched actions absent, and nothing may trail. A
// dropped, reordered, or restaged apply step is therefore an
// obligation before any path runs.
func (m *machine) buildSteps() *failure {
	tableOfMatch := make(map[string]*lang.TableInfo, len(m.u.Tables))
	tableActions := make(map[string]bool)
	for _, tbl := range m.u.Tables {
		tableOfMatch[tbl.Match.Name] = tbl
		for _, a := range tbl.Actions {
			tableActions[a.Name] = true
		}
	}
	// The text's apply entries, each named as the schedule names it. A
	// table apply linearizes as its match and then its actions.
	textTables := make(map[*lang.Action]*lang.TableInfo, len(m.tu.Tables))
	for _, tbl := range m.tu.Tables {
		textTables[tbl.Match] = tbl
	}
	var applies []*lang.Invocation
	var names []string
	for i := 0; i < len(m.tu.Invocations); i++ {
		inv := m.tu.Invocations[i]
		name := "action " + inv.Action.Name
		if tbl := textTables[inv.Action]; tbl != nil {
			name = "table " + tbl.Name
			if len(inv.Guards) > 0 {
				name = "guarded " + name
			}
			i += len(tbl.Actions)
		}
		applies, names = append(applies, inv), append(names, name)
	}
	expect := func(i int, want string) *failure {
		if i >= len(names) {
			return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: expected %s, apply block ends early", i, want)}
		}
		if names[i] != want {
			return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: expected %s, found %s", i, want, names[i])}
		}
		return nil
	}
	order, steps := m.layout.Steps(m.u)
	applyIdx, next := 0, 0
	for i, pl := range order {
		if tbl, ok := tableOfMatch[pl.Action]; ok {
			if f := expect(applyIdx, "table "+tbl.Name); f != nil {
				return f
			}
			if f := stageCheck("table "+tbl.Name, textTables[applies[applyIdx].Action].Decl.Stages, []int{pl.Stage}); f != nil {
				return f
			}
			if f := m.registerStage("table "+tbl.Name, applies[applyIdx], pl.Stage); f != nil {
				return f
			}
			applyIdx++
			continue
		}
		if next == len(steps) || steps[next].Pos != i {
			continue // no body
		}
		name := codegen.InstanceName(pl.Action, pl.Iter)
		act := m.tu.ActionByName(name)
		if act == nil {
			return &failure{Kind: "unknown-action", Detail: "emitted program lacks action " + name}
		}
		if f := stageCheck("action "+name, act.Decl.Stages, []int{pl.Stage}); f != nil {
			return f
		}
		s := tvStep{Step: steps[next], tgt: sem.Step{Inv: &lang.Invocation{Action: act}, Stage: act.Decl.Stages[0]}}
		next++
		if !tableActions[pl.Action] {
			if f := expect(applyIdx, "action "+name); f != nil {
				return f
			}
			s.hasApply = true
			s.tgt.Inv = applies[applyIdx]
			applyIdx++
		}
		if f := m.registerStage("action "+name, s.tgt.Inv, pl.Stage); f != nil {
			return f
		}
		m.steps = append(m.steps, s)
	}
	if applyIdx != len(names) {
		return &failure{Kind: "apply-mismatch", Detail: fmt.Sprintf("apply step %d: %s not in the layout schedule", applyIdx, names[applyIdx])}
	}
	return nil
}

// registerStage checks an apply entry of the text (its guards and its
// action body, or a table's keys) against the stage it runs at: every
// register it references must be declared at that stage. Equivalence
// runs the two programs in schedule order, so a register read from a
// stage that does not hold it would otherwise prove.
func (m *machine) registerStage(what string, inv *lang.Invocation, stage int) *failure {
	for _, a := range sem.Footprint(m.tu, inv) {
		if a.Reg != nil && !slices.Contains(a.Reg.Decl.Stages, stage) {
			return &failure{Kind: "register-stage", Detail: fmt.Sprintf("%s at stage %d references register %s, @stage%v", what, stage, a.Reg.Name, a.Reg.Decl.Stages)}
		}
	}
	return nil
}

// fieldSlotOf returns the storage slot of a field's storage key,
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

// inVar is the packet input for a header slot read at the given width:
// a free symbolic variable normally, a deterministic per-trial constant
// in concrete mode.
func (m *machine) inVar(f *fieldSlot, width int) *node {
	if m.concrete {
		return m.t.constant(concreteInput(f.key, width, m.trial))
	}
	if f.in == nil {
		f.in = m.t.in(f.key)
	}
	return f.in
}

// concreteInput is the value concrete mode gives header field key, of
// the given width, in a trial: like a packet's, it enters cut to the
// field's width.
func concreteInput(key string, width int, trial uint64) uint64 {
	return structures.Hash(fnv1a(key), trial) & sem.WidthMask(width)
}

// evalCtx is one side's evaluation context: the symbolic domain of the
// shared walker (sem.Domain[*node]), over the source or over the text.
type evalCtx struct {
	m     *machine
	st    *pathState
	src   bool
	stage int
}

func (ev *evalCtx) Const(v uint64) *node { return ev.m.t.constant(v) }

// Charge adds a block's charge to the step's stage.
func (ev *evalCtx) Charge(c pisa.ActionProfile) {
	if ev.stage >= 0 && ev.stage < len(ev.st.alu) {
		ev.st.alu[ev.stage] = ev.st.alu[ev.stage].Add(c)
	}
}

// Decide resolves a branch condition ("is this value nonzero?").
// Constant and interval-decided conditions never fork, nor does one
// whose negation the path already decided. On the source
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
	// The negation of a condition this path decided (an else branch's
	// guard, linearized as !cond) is decided too: the hash-consed not
	// node names its operand.
	if x := n.args[0]; n.kind == kUn && n.op == lang.NOT && x.stamp == m.gen {
		if !ev.src && x.dec > m.consulted[st.next] {
			m.consulted[st.next] = x.dec
		}
		return !x.taken, nil
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

// regSlot resolves a register instance on this side: the source names
// it by register and instance, the text by its declaration (bindText
// bound each declaration to one materialized instance).
func (ev *evalCtx) regSlot(name string, inst int64) (int32, bool) {
	if !ev.src {
		slot, ok := ev.m.tgtRegs[name]
		return slot, ok
	}
	slot, ok := ev.m.regByKey[regKey{name, inst}]
	return slot, ok
}

// RegRead is the interpreter's register load: unmaterialized instances
// read as zero without a stats charge; materialized reads wrap the cell
// index at the extent (the layout's, which bindText holds the text's
// declaration to) and count one RegRead.
func (ev *evalCtx) RegRead(name string, inst int64, cell *node, width int) *node {
	slot, ok := ev.regSlot(name, inst)
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
	slot, ok := ev.regSlot(name, inst)
	if !ok {
		return
	}
	c := ev.m.t.wrapCell(cell, ev.m.regs[slot].cells)
	arr := ev.m.t.store(ev.m.regArr(ev.st, slot), c, ev.m.t.mask(val, width))
	ev.st.undo = append(ev.st.undo, undoRec{reg: true, slot: slot, old: ev.st.regs[slot]})
	ev.st.regs[slot] = entry{arr, ev.m.gen}
	ev.st.regWrites++
}

// fieldSlot returns the storage slot of a field access on this side; a
// text field's key is that of the source field instance it names.
func (ev *evalCtx) fieldSlot(f sem.Field) int32 {
	slot, ok := ev.m.fieldSlots[f]
	if !ok {
		key := f.Key()
		if k, named := ev.m.textKeys[key]; named && !ev.src {
			key = k
		}
		slot = ev.m.fieldSlotOf(fieldName{header: f.Header, key: key})
		ev.m.fieldSlots[f] = slot
	}
	return slot
}

func (ev *evalCtx) FieldRead(f sem.Field) *node { return ev.fieldRead(ev.fieldSlot(f), f.Width) }

func (ev *evalCtx) FieldWrite(f sem.Field, v *node) { ev.fieldWrite(ev.fieldSlot(f), v, f.Width) }

// fieldRead loads a header or metadata field: the value this path
// wrote, else the packet input (headers, masked to the field) or zero
// (metadata).
func (ev *evalCtx) fieldRead(slot int32, width int) *node {
	f := &ev.m.fields[slot]
	c := ev.st.fields[slot]
	written := c.stamp == ev.m.gen
	if f.header {
		if !written {
			c.n = ev.m.inVar(f, width)
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

// run executes the canonical schedule on one side from its next step to
// the end: on the source, each step of the elastic program under the
// assignment; on the target, the text's action in its place. A packet
// abort is recorded in st.aborted (not returned); residual obligations
// are returned, with st.next at the step that raised them. Branch
// conditions on the target must be determined by the source path's
// decisions (plus intervals/constants): the target makes no free
// decisions of its own, and each step records which it read
// (consulted).
func (m *machine) run(ev *evalCtx) error {
	st := ev.st
	for ; st.aborted == "" && st.next < len(m.steps); st.next++ {
		s := &m.steps[st.next]
		m.executed++
		var err error
		if ev.src {
			st.save(st.next, len(m.taken))
			ev.stage = s.Stage
			err = sem.Exec[*node](ev, m.u, m.layout.Symbolics, &s.Step)
		} else {
			st.save(st.next, 0)
			m.consulted[st.next] = -1
			ev.stage = s.tgt.Stage
			pass := true
			if !s.hasApply {
				pass, err = sem.Guards[*node](ev, m.u, m.layout.Symbolics, &s.Step)
			}
			if err == nil && pass {
				err = sem.Exec[*node](ev, m.tu, nil, &s.tgt)
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
	err := m.run(&m.srcEv)
	m.tally(&m.src, err)
	if err == nil {
		err = m.run(&m.tgtEv)
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
			fails = append(fails, failure{Kind: "stats-mismatch", Detail: fmt.Sprintf("ALUs[stage %d] %+v vs %+v", i, src.alu[i], tgt.alu[i])})
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
		if err := m.run(&m.srcEv); err != nil {
			continue // unsupported constructs stay symbolic obligations
		}
		if err := m.run(&m.tgtEv); err != nil {
			continue
		}
		if fails := m.compare(); len(fails) > 0 {
			return fmt.Sprintf("trial %d: %s: %s", trial, fails[0].Kind, fails[0].Detail)
		}
	}
	return ""
}
