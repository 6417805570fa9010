// VM lowering: translates a pipeline's placed steps into the flat
// vmInst stream executed by vm.go, once, at construction time.
//
// Each step lowers one of two ways. When every guard and statement
// matches a motif the elastic module library emits — constant seeds,
// hash-index computations, register read-modify-writes and loads, slot
// moves, two- and three-way folds, LT/EQ guards — the step becomes one
// superinstruction per guard and statement. Any other step becomes one
// opStep, which runs the step on sem's walker over the frame (vmDom in
// vm.go): the VM evaluates nothing the motifs do not cover itself.
//
// The superinstructions keep the interpreter's observable behavior:
// outputs, register contents, one register read per load and one
// write per store of a materialized instance, arithmetic wrapped at
// the combined operand width, loads masked at the declared field
// width, and the charges of the step's sem.Plan. A block's charge
// rides on the first instruction the block emits, which runs exactly
// when the block does. difftest's engine oracle and FuzzVMVsInterp
// hold the VM to the interpreter.
//
// An opStep reports a zero divisor or an unknown name per packet, as
// the interpreter does. Every field and register instance a step
// touches is the one the resolver bound its reference to (lang.Ref), so
// each has its frame slot or store at lower time. What still rejects
// the whole program, so that the pipeline keeps the interpreter, is a
// materialized register instance with no cells, and a stage whose
// per-packet charge overflows the packed counters.

package sim

import (
	"fmt"

	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
)

// lowerVM compiles every placed step to bytecode, then derives the
// batch execution segments. A program the lowering rejects keeps the
// interpreter.
func lowerVM(p *Pipeline) (*vmProg, error) {
	return (&vmLowerer{p: p}).lower()
}

// markUncond flags every instruction that no guard can skip. A lane
// can only be "waiting" at pc (its per-lane program counter parked on a
// forward guard target T > pc) when pc lies strictly inside some
// guard's interval (guard pc, T) — so an instruction inside no such
// interval is executed by every lane of every batch, and the vector
// executor runs it on all lanes without reading or writing their pcs
// (batch.go). Intervals are computed over the whole program, not per
// segment: a guard inside a serial segment can target past a later
// vector segment's start, and those skipped instructions must stay
// conditional. opRegBumpSlot is excluded defensively: hazard analysis
// already keeps it out of vector segments, where the flag is read.
func markUncond(pr *vmProg) {
	cond := make([]bool, len(pr.code))
	for i := range pr.code {
		switch pr.code[i].op {
		case opGuardLT, opGuardEQImm:
			for p := i + 1; p < int(pr.code[i].target); p++ {
				cond[p] = true
			}
		}
	}
	for i := range pr.code {
		pr.code[i].uncond = !cond[i] && pr.code[i].op != opRegBumpSlot
	}
}

type vmLowerer struct {
	p      *Pipeline
	pr     *vmProg
	regIDs map[string]int32 // "name@inst" -> dense register-instance id
	// stepOnly lowers every step to opStep; tests set it to prove sem's
	// walker on the frame reproduces the interpreter on its own.
	stepOnly bool
}

func (lo *vmLowerer) lower() (*vmProg, error) {
	lo.pr = &vmProg{p: lo.p, fieldSlot: make(map[string]int32)}
	lo.regIDs = make(map[string]int32)
	for i := range lo.p.steps {
		if err := lo.lowerStep(&lo.p.steps[i]); err != nil {
			return nil, err
		}
	}
	// A frame flushes its packed counters after at most vmLanes
	// packets, each charging a stage at most the sum of the stage's
	// instruction charges and of its opSteps' whole plans, every arm
	// included: keep that within one packed field.
	sum := make([]pisa.ActionProfile, len(lo.p.stats.ALUs)+1)
	for i := range lo.pr.code {
		in := &lo.pr.code[i]
		c := unpackCharge(in.charge)
		if in.op == opStep {
			plan := in.step.st.Plan(lo.p.unit, lo.p.layout.Symbolics)
			c = c.Add(plan.Guards).Add(plan.Body)
			for _, arm := range plan.Arms {
				c = c.Add(arm)
			}
		}
		sum[in.ctr] = sum[in.ctr].Add(c)
	}
	for _, c := range sum {
		if max(c.RegisterAccesses, c.StatelessOps, c.Hashes)*vmLanes >= 1<<chargeBits {
			return nil, fmt.Errorf("vm: a stage charges %+v per packet, beyond the packed counters", c)
		}
	}
	markUncond(lo.pr)
	lo.pr.segs = segmentize(lo.pr)
	return lo.pr, nil
}

// slotFor interns a field key; a header field's slot is also recorded
// in the load lists.
func (lo *vmLowerer) slotFor(key string, header bool) int32 {
	if slot, ok := lo.pr.fieldSlot[key]; ok {
		return slot
	}
	slot := int32(len(lo.pr.slotKeys))
	lo.pr.fieldSlot[key] = slot
	lo.pr.slotKeys = append(lo.pr.slotKeys, key)
	if header {
		lo.pr.hdrKeys = append(lo.pr.hdrKeys, key)
		lo.pr.hdrSlots = append(lo.pr.hdrSlots, slot)
		lo.pr.hdrMasks = append(lo.pr.hdrMasks, lo.p.inputMask(key))
	}
	return slot
}

func (lo *vmLowerer) regIDFor(name string, inst int) int32 {
	key := sem.InstKey(name, uint64(inst))
	if id, ok := lo.regIDs[key]; ok {
		return id
	}
	id := int32(len(lo.regIDs))
	lo.regIDs[key] = id
	return id
}

// lowerStep lowers one step: to superinstructions when every guard and
// statement matches a motif, else to one opStep. A declined attempt's
// instructions are dropped; the slots and register ids it interned
// name fields and registers the step's opStep binds too.
func (lo *vmLowerer) lowerStep(st *sem.Step) error {
	ctr := int32(len(lo.p.stats.ALUs)) // dummy accumulator
	if st.Stage >= 0 && st.Stage < len(lo.p.stats.ALUs) {
		ctr = int32(st.Stage)
	}
	if !lo.stepOnly {
		mark := len(lo.pr.code)
		plan := st.Plan(lo.p.unit, lo.p.layout.Symbolics)
		ctx := &vmStepCtx{lo: lo, st: st, plan: plan, ctr: ctr, pending: plan.Guards}
		if ctx.lowerMotifs() {
			return nil
		}
		lo.pr.code = lo.pr.code[:mark]
	}
	return lo.lowerOpStep(st, ctr)
}

// --- superinstructions ----------------------------------------------------

// vmStepCtx pins one action instance's iteration index, stage counter
// and charge plan while its guards and body lower to motifs.
type vmStepCtx struct {
	lo   *vmLowerer
	st   *sem.Step
	plan *sem.Plan
	ctr  int32 // ALU accumulator index: the stage, or the dummy
	// pending is the charge of the block being entered, stamped on the
	// next instruction emitted.
	pending pisa.ActionProfile
}

// lowerMotifs emits the step's guards as conditional forward jumps to
// the step's end, then its body, and reports whether every guard and
// statement matched a motif. It stops at the first that does not.
func (ctx *vmStepCtx) lowerMotifs() bool {
	var guardIdx []int
	for _, g := range ctx.st.Inv.Guards {
		in, ok := ctx.matchGuard(g)
		if !ok {
			return false
		}
		guardIdx = append(guardIdx, ctx.emit(in))
	}
	ctx.pending = ctx.pending.Add(ctx.plan.Body)
	if !ctx.lowerBlock(ctx.st.Inv.Action.Decl.Body) {
		return false
	}
	for _, gi := range guardIdx {
		ctx.patch(gi)
	}
	return true
}

// emit appends an instruction, stamping the step's ALU counter and any
// pending block charge, and returns its index for jump patching.
func (ctx *vmStepCtx) emit(in vmInst) int {
	in.ctr = ctx.ctr
	in.charge = packCharge(ctx.pending)
	ctx.pending = pisa.ActionProfile{}
	if in.store == nil {
		in.regID = -1
	}
	ctx.lo.pr.code = append(ctx.lo.pr.code, in)
	return len(ctx.lo.pr.code) - 1
}

// patch points the jump at index i to the next instruction emitted.
func (ctx *vmStepCtx) patch(i int) {
	ctx.lo.pr.code[i].target = int32(len(ctx.lo.pr.code))
}

// The matchers below answer whether a guard, statement or operand is a
// motif; they emit nothing unless the whole statement or guard is.

// vmConst is a compile-time constant and the width it wraps at.
type vmConst struct {
	val   uint64
	width int
}

// constExpr folds a compile-time-constant expression in the step
// (sem.Fold). Any error declines: the expression is not constant, or
// the walker stops the packet on it.
func (ctx *vmStepCtx) constExpr(e lang.Expr) (vmConst, bool) {
	v, w, err := sem.Fold(e, func(r *lang.Ref) (uint64, bool) {
		return ctx.st.Name(ctx.lo.p.unit, ctx.lo.p.layout.Symbolics, r)
	})
	return vmConst{val: v, width: w}, err == nil
}

// vmField is a resolved struct-field reference: its interned slot,
// declared width, and whether it is a header field.
type vmField struct {
	slot   int32
	width  int
	header bool
}

// fieldRef resolves a struct-field reference to the field instance
// the step selects.
func (ctx *vmStepCtx) fieldRef(ref *lang.Ref) (vmField, bool) {
	_, mf := sem.Bound(ctx.lo.p.unit, ref)
	if mf == nil {
		return vmField{}, false
	}
	f := stepField(ctx.st, ref, mf)
	return vmField{slot: ctx.lo.slotFor(f.Key(), mf.Header), width: mf.Width, header: mf.Header}, true
}

// stepField is the instance of field mf that ref selects in step st.
func stepField(st *sem.Step, ref *lang.Ref, mf *lang.MetaField) sem.Field {
	f := sem.Field{MetaField: mf}
	if mf.Elastic() {
		f.Idx = uint64(ref.InstAt(st.Iter))
	}
	return f
}

// metaOperand resolves a motif operand: a metadata field (meta loads
// are unmasked: slots only ever hold store-masked values).
func (ctx *vmStepCtx) metaOperand(e lang.Expr) (slot int32, width int, ok bool) {
	ref, ok := e.(*lang.Ref)
	if !ok {
		return 0, 0, false
	}
	f, ok := ctx.fieldRef(ref)
	if !ok || f.header {
		return 0, 0, false
	}
	return f.slot, f.width, true
}

// regAccess resolves a motif register access: a materialized instance
// with the cell index held in a metadata field (the library's
// "@_meta.index[i]" motif). It returns the instance's backing store,
// the cell slot and the store's dense id.
func (ctx *vmStepCtx) regAccess(ref *lang.Ref, reg *lang.Register) (store []uint64, cellSlot, regID int32, ok bool) {
	seg := ref.Segs[0]
	inst, cellE := 0, lang.Expr(nil)
	switch {
	case reg.Decl.Count != nil && len(seg.Indexes) == 2:
		inst, cellE = int(ref.InstAt(ctx.st.Iter)), seg.Indexes[1]
	case len(seg.Indexes) == 1:
		cellE = seg.Indexes[0]
	default:
		return nil, 0, 0, false
	}
	store, ok = ctx.lo.p.Register(reg.Name, inst)
	if !ok || len(store) == 0 {
		return nil, 0, 0, false
	}
	regID = ctx.lo.regIDFor(reg.Name, inst)
	cellSlot, _, ok = ctx.metaOperand(cellE)
	return store, cellSlot, regID, ok
}

// lowerBlock emits a block's statements, through nested bare blocks.
// An if statement matches no motif: only the walker charges its arms
// as they are taken.
func (ctx *vmStepCtx) lowerBlock(b *lang.Block) bool {
	for _, s := range b.Stmts {
		ok := false
		switch s := s.(type) {
		case *lang.Block:
			ok = ctx.lowerBlock(s)
		case *lang.AssignStmt:
			ok = ctx.matchAssign(s)
		}
		if !ok {
			return false
		}
	}
	return true
}

// matchAssign offers an assignment to the motif matchers.
func (ctx *vmStepCtx) matchAssign(s *lang.AssignStmt) bool {
	u := ctx.lo.p.unit
	if reg, _ := sem.Bound(u, s.LHS); reg != nil {
		return ctx.matchRegBump(s, reg)
	}
	lhs, ok := ctx.fieldRef(s.LHS)
	if !ok || lhs.header {
		return false
	}
	dst, dmask := lhs.slot, sem.WidthMask(lhs.width)

	// Constant right-hand side: fold it.
	if c, ok := ctx.constExpr(s.RHS); ok {
		ctx.emit(vmInst{op: opConstSlot, dst: dst, imm: c.val & dmask})
		return true
	}

	switch rhs := s.RHS.(type) {
	case *lang.Ref:
		if reg, _ := sem.Bound(u, rhs); reg != nil {
			store, cellSlot, regID, ok := ctx.regAccess(rhs, reg)
			if !ok {
				return false
			}
			ctx.emit(vmInst{
				op: opRegLoadSlot, a: cellSlot, dst: dst, dmask: dmask,
				store: store, ncells: uint64(len(store)), regID: regID,
			})
			return true
		}
		src, _, ok := ctx.metaOperand(rhs)
		if !ok {
			return false
		}
		ctx.emit(vmInst{op: opMovSlot, a: src, dst: dst, dmask: dmask})
		return true
	case *lang.Binary:
		switch rhs.Op {
		case lang.PCT:
			return ctx.matchHashMod(rhs, dst, dmask)
		case lang.PLUS:
			return ctx.matchAdd(rhs, dst, dmask)
		}
	}
	return false
}

// matchHashMod matches the index-computation motif
// "hash(hdr, seed) % modulus" with a constant seed and modulus.
func (ctx *vmStepCtx) matchHashMod(b *lang.Binary, dst int32, dmask uint64) bool {
	call, ok := b.X.(*lang.CallExpr)
	if !ok || call.Name != "hash" || len(call.Args) != 2 {
		return false
	}
	href, ok := call.Args[0].(*lang.Ref)
	if !ok {
		return false
	}
	key, ok := ctx.fieldRef(href)
	if !ok {
		return false
	}
	seed, ok := ctx.constExpr(call.Args[1])
	if !ok {
		return false
	}
	div, ok := ctx.constExpr(b.Y)
	if !ok || !key.header || div.val == 0 {
		return false
	}
	// hash yields width 64, so the modulo result's combined-width wrap
	// is the identity; only the header load mask and the destination
	// mask survive to runtime.
	ctx.emit(vmInst{
		op: opHashModSlot, a: key.slot, dst: dst,
		mask: sem.WidthMask(key.width), imm: seed.val, imm2: div.val, dmask: dmask,
	})
	return true
}

// matchAdd matches the fold motifs: meta+meta, and the left-nested
// three-way meta+meta+meta.
func (ctx *vmStepCtx) matchAdd(b *lang.Binary, dst int32, dmask uint64) bool {
	if inner, ok := b.X.(*lang.Binary); ok && inner.Op == lang.PLUS {
		a, wa, ok := ctx.metaOperand(inner.X)
		if !ok {
			return false
		}
		b2, wb, ok := ctx.metaOperand(inner.Y)
		if !ok {
			return false
		}
		c, wc, ok := ctx.metaOperand(b.Y)
		if !ok {
			return false
		}
		innerW := sem.CombineWidth(wa, wb)
		outerW := sem.CombineWidth(innerW, wc)
		ctx.emit(vmInst{
			op: opAdd3Slot, a: a, b: b2, c: c, dst: dst,
			mask: sem.WidthMask(innerW), mask2: sem.WidthMask(outerW) & dmask,
		})
		return true
	}
	a, wa, ok := ctx.metaOperand(b.X)
	if !ok {
		return false
	}
	b2, wb, ok := ctx.metaOperand(b.Y)
	if !ok {
		return false
	}
	ctx.emit(vmInst{
		op: opAdd2Slot, a: a, b: b2, dst: dst,
		mask: sem.WidthMask(sem.CombineWidth(wa, wb)) & dmask,
	})
	return true
}

// matchRegBump matches the read-modify-write motif
// "reg[i][cell] = reg[i][cell] + addend" (same cell on both sides,
// compared syntactically) with a constant addend.
func (ctx *vmStepCtx) matchRegBump(s *lang.AssignStmt, reg *lang.Register) bool {
	rb, ok := s.RHS.(*lang.Binary)
	if !ok || rb.Op != lang.PLUS {
		return false
	}
	xref, ok := rb.X.(*lang.Ref)
	if !ok || lang.PrintExpr(xref) != lang.PrintExpr(s.LHS) {
		return false
	}
	add, ok := ctx.constExpr(rb.Y)
	if !ok {
		return false
	}
	store, cellSlot, regID, ok := ctx.regAccess(s.LHS, reg)
	if !ok {
		return false
	}
	// The add wraps at the combined operand width; the store masks at
	// the register width. The addend is width-0 (a constant), so the
	// two masks compose into one.
	mask := sem.WidthMask(sem.CombineWidth(reg.Width, add.width)) & sem.WidthMask(reg.Width)
	ctx.emit(vmInst{
		op: opRegBumpSlot, a: cellSlot, imm: add.val, mask: mask,
		store: store, ncells: uint64(len(store)), regID: regID,
	})
	return true
}

// matchGuard matches a step guard to the LT/EQ motifs: a conditional
// forward jump, whose target lowerMotifs patches to the step's end.
func (ctx *vmStepCtx) matchGuard(g lang.Expr) (vmInst, bool) {
	b, ok := g.(*lang.Binary)
	if !ok {
		return vmInst{}, false
	}
	a, _, ok := ctx.metaOperand(b.X)
	if !ok {
		return vmInst{}, false
	}
	switch b.Op {
	case lang.LT:
		if b2, _, ok := ctx.metaOperand(b.Y); ok {
			return vmInst{op: opGuardLT, a: a, b: b2}, true
		}
	case lang.EQ:
		if y, ok := ctx.constExpr(b.Y); ok {
			return vmInst{op: opGuardEQImm, a: a, imm: y.val}, true
		}
	}
	return vmInst{}, false
}

// --- opStep ---------------------------------------------------------------

// stepScan binds, ahead of time, everything one opStep's walk can touch
// (vmStep), in the walker's own resolution: a slot for every field
// instance, the store of every materialized register instance, and
// whether the walk can stop a packet (vmProg.mayAbort).
type stepScan struct {
	lo *vmLowerer
	vs *vmStep
}

// lowerOpStep lowers st to one opStep charging counter ctr.
func (lo *vmLowerer) lowerOpStep(st *sem.Step, ctr int32) error {
	sc := stepScan{lo: lo, vs: &vmStep{st: st}}
	for _, g := range st.Inv.Guards {
		if err := sc.expr(g); err != nil {
			return err
		}
	}
	if err := sc.block(st.Inv.Action.Decl.Body); err != nil {
		return err
	}
	lo.pr.code = append(lo.pr.code, vmInst{op: opStep, ctr: ctr, regID: -1, step: sc.vs})
	return nil
}

func (sc *stepScan) name(r *lang.Ref) (uint64, bool) {
	return sc.vs.st.Name(sc.lo.p.unit, sc.lo.p.layout.Symbolics, r)
}

// abortable records that the walk can stop a packet here.
func (sc *stepScan) abortable() { sc.lo.pr.mayAbort = true }

func (sc *stepScan) block(b *lang.Block) error {
	for _, s := range b.Stmts {
		var err error
		switch s := s.(type) {
		case *lang.Block:
			err = sc.block(s)
		case *lang.AssignStmt:
			if err = sc.expr(s.RHS); err == nil {
				err = sc.ref(s.LHS, true)
			}
		case *lang.IfStmt:
			if err = sc.expr(s.Cond); err == nil {
				err = sc.block(s.Then)
			}
			if err == nil && s.Else != nil {
				err = sc.block(s.Else)
			}
		default:
			sc.abortable()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (sc *stepScan) expr(e lang.Expr) error {
	switch e := e.(type) {
	case *lang.IntLit, *lang.BoolLit:
		return nil
	case *lang.Unary:
		if e.Op != lang.MINUS && e.Op != lang.NOT {
			sc.abortable()
		}
		return sc.expr(e.X)
	case *lang.Binary:
		// The walker stops a packet on an operator BinOp does not apply
		// and on a divisor that is zero or known only at run time.
		if _, err := sem.BinOp(e.Op, 0, 1); err != nil {
			sc.abortable()
		}
		if e.Op == lang.SLASH || e.Op == lang.PCT {
			if d, _, err := sem.Fold(e.Y, sc.name); err != nil || d == 0 {
				sc.abortable()
			}
		}
		if err := sc.expr(e.X); err != nil {
			return err
		}
		return sc.expr(e.Y)
	case *lang.CallExpr:
		for _, a := range e.Args {
			if err := sc.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *lang.Ref:
		return sc.ref(e, false)
	}
	sc.abortable()
	return nil
}

// ref binds a reference the walker reads, or assigns when write is set.
func (sc *stepScan) ref(ref *lang.Ref, write bool) error {
	if !write && ref.IsSimpleIdent() {
		if _, ok := sc.name(ref); !ok {
			sc.abortable()
		}
		return nil
	}
	reg, mf := sem.Bound(sc.lo.p.unit, ref)
	switch {
	case reg != nil:
		return sc.register(ref, reg, write)
	case mf != nil:
		sc.field(ref, mf)
		return nil
	}
	sc.abortable()
	return nil
}

// register binds the register instance an access touches.
func (sc *stepScan) register(ref *lang.Ref, reg *lang.Register, write bool) error {
	seg := ref.Segs[0]
	var cell lang.Expr
	switch {
	case reg.Decl.Count != nil && len(seg.Indexes) == 2:
		cell = seg.Indexes[1]
		if err := sc.bindReg(reg.Name, ref.InstAt(sc.vs.st.Iter), write); err != nil {
			return err
		}
	case len(seg.Indexes) == 1:
		cell = seg.Indexes[0]
		if err := sc.bindReg(reg.Name, 0, write); err != nil {
			return err
		}
	default:
		sc.abortable()
		return nil
	}
	return sc.expr(cell)
}

// bindReg binds one register instance; an instance the layout did not
// materialize stays unbound, and reads zero.
func (sc *stepScan) bindReg(name string, inst int64, write bool) error {
	store, ok := sc.lo.p.Register(name, int(inst))
	if !ok {
		return nil
	}
	if len(store) == 0 {
		return fmt.Errorf("vm: register %s/%d has no cells", name, inst)
	}
	for i := range sc.vs.regs {
		if r := &sc.vs.regs[i]; r.name == name && r.inst == inst {
			r.write = r.write || write
			return nil
		}
	}
	sc.vs.regs = append(sc.vs.regs, vmStepReg{
		name: name, inst: inst, store: store, ncells: uint64(len(store)),
		id: sc.lo.regIDFor(name, int(inst)), write: write,
	})
	return nil
}

// field binds the field instance ref selects to its slot.
func (sc *stepScan) field(ref *lang.Ref, mf *lang.MetaField) {
	f := stepField(sc.vs.st, ref, mf)
	for _, b := range sc.vs.fields {
		if b.f == mf && b.idx == f.Idx {
			return
		}
	}
	slot := sc.lo.slotFor(f.Key(), mf.Header)
	sc.vs.fields = append(sc.vs.fields, vmStepField{f: mf, idx: f.Idx, slot: slot})
}
