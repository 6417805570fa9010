// VM lowering: translates a pipeline's placed steps into the flat
// vmInst stream executed by vm.go, once, at construction time.
//
// The lowering keeps the interpreter's observable behavior: outputs,
// register contents, one register read per load and one write per
// store of a materialized instance, arithmetic wrapped at the combined
// operand width, loads masked at the declared field width, and the
// charges of the step's sem.Plan. A block's charge rides on the first
// instruction the block emits, which runs exactly when the block does,
// before anything in it can abort the packet. difftest's engine oracle
// and FuzzVMVsInterp hold the VM to the interpreter.
//
// Each statement and guard is first offered to the motif matchers, which
// recognise what the elastic module library emits — constant seeds,
// hash-index computations, register read-modify-writes and loads, slot
// moves, two- and three-way folds, LT/EQ guards — and emit one
// superinstruction each. Anything they decline falls through to the
// generic core (genExpr and friends), which lowers every construct the
// interpreter evaluates to stack code. What remains rejects the whole
// program, and the pipeline keeps the interpreter, which also preserves
// its per-packet error behavior: a non-constant elastic field or
// register instance index, a constant zero divisor, an unknown name.

package sim

import (
	"errors"
	"fmt"

	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
)

// lowerVM compiles every placed step to bytecode, then derives the
// batch execution segments. Any unsupported construct aborts the whole
// lowering; the caller keeps the interpreter.
func lowerVM(p *Pipeline) (*vmProg, error) {
	return (&vmLowerer{p: p}).lower()
}

// markUncond flags every instruction that no jump can skip. A lane
// can only be "waiting" at pc (its per-lane program counter parked on a
// forward jump target T > pc) when pc lies strictly inside some jump's
// interval (jump pc, T) — so an instruction inside no such interval is
// executed by every lane of every batch, and the vector executor runs
// it on all lanes without reading or writing their pcs (batch.go).
// Intervals are computed over the whole program, not per segment: a
// jump inside a serial segment can target past a later vector
// segment's start, and those skipped instructions must stay
// conditional. opRegBumpSlot is excluded defensively: hazard analysis
// already keeps it out of vector segments, where the flag is read.
func markUncond(pr *vmProg) {
	cond := make([]bool, len(pr.code))
	for i := range pr.code {
		switch pr.code[i].op {
		case opGuardLT, opGuardEQImm, opShortCircuit, opBranchFalse, opJump:
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
	// genericOnly bypasses the motif matchers; tests set it to prove the
	// generic core is total over the motifs too.
	genericOnly bool
}

func (lo *vmLowerer) lower() (*vmProg, error) {
	lo.pr = &vmProg{p: lo.p, fieldSlot: make(map[string]int32)}
	lo.regIDs = make(map[string]int32)
	for i := range lo.p.steps {
		if err := lo.lowerStep(&lo.p.steps[i]); err != nil {
			return nil, err
		}
	}
	lo.pr.nreg = len(lo.regIDs)
	// A frame flushes its packed counters after at most vmLanes
	// packets, each charging a stage at most the sum of the stage's
	// instruction charges: keep that within one packed field.
	sum := make([]pisa.ActionProfile, len(lo.p.stats.ALUs)+1)
	for i := range lo.pr.code {
		in := &lo.pr.code[i]
		sum[in.ctr] = sum[in.ctr].Add(unpackCharge(in.charge))
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

// vmStepCtx pins one action instance's iteration index, stage counter
// and charge plan while its guards and body lower.
type vmStepCtx struct {
	lo   *vmLowerer
	st   *sem.Step
	plan *sem.Plan
	ctr  int32 // ALU accumulator index: the stage, or the dummy
	sp   int   // operand-stack depth at the next generic instruction
	// pending is the charge of the block being entered, stamped on the
	// next instruction emitted.
	pending pisa.ActionProfile
}

func (lo *vmLowerer) lowerStep(st *sem.Step) error {
	ctr := int32(len(lo.p.stats.ALUs)) // dummy accumulator
	if st.Stage >= 0 && st.Stage < len(lo.p.stats.ALUs) {
		ctr = int32(st.Stage)
	}
	plan := st.Plan(lo.p.unit, lo.p.layout.Symbolics)
	ctx := &vmStepCtx{lo: lo, st: st, plan: plan, ctr: ctr, pending: plan.Guards}
	var guardIdx []int
	for _, g := range st.Inv.Guards {
		gi, err := ctx.lowerGuard(g)
		if err != nil {
			return err
		}
		guardIdx = append(guardIdx, gi)
	}
	ctx.pending = ctx.pending.Add(plan.Body)
	if err := ctx.lowerBlock(st.Inv.Action.Decl.Body); err != nil {
		return err
	}
	// A failing guard skips the rest of the step (forward only).
	for _, gi := range guardIdx {
		ctx.patch(gi)
	}
	return nil
}

// emit appends an instruction, stamping the step's ALU counter and any
// pending block charge and tracking the generic operand stack's depth,
// and returns its index for jump patching.
func (ctx *vmStepCtx) emit(in vmInst) int {
	in.ctr = ctx.ctr
	in.charge = packCharge(ctx.pending)
	ctx.pending = pisa.ActionProfile{}
	if in.store == nil {
		in.regID = -1
	}
	switch in.op {
	case opPush, opPushImm:
		ctx.sp++
	case opBin, opCall, opShortCircuit, opStore, opBranchFalse:
		ctx.sp--
	case opRegStore:
		ctx.sp -= 2
	}
	if ctx.sp > ctx.lo.pr.nstack {
		ctx.lo.pr.nstack = ctx.sp
	}
	ctx.lo.pr.code = append(ctx.lo.pr.code, in)
	return len(ctx.lo.pr.code) - 1
}

// patch points the jump at index i to the next instruction emitted.
func (ctx *vmStepCtx) patch(i int) {
	ctx.lo.pr.code[i].target = int32(len(ctx.lo.pr.code))
}

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// --- constant evaluation --------------------------------------------------

// vmConst is a compile-time constant and the width it wraps at.
type vmConst struct {
	val   uint64
	width int
}

// errNoMotif is a matcher declining a statement.
var errNoMotif = errors.New("vm: no motif")

// constExpr folds a compile-time-constant expression in the step
// (sem.Fold). sem.ErrNotConst leaves e to the generic core; any other
// error (an unknown name, a constant zero divisor) rejects the lowering,
// so the interpreter reports it per packet.
func (ctx *vmStepCtx) constExpr(e lang.Expr) (vmConst, error) {
	v, w, err := sem.Fold(e, func(n string) (uint64, bool) {
		return ctx.st.Name(ctx.lo.p.unit, ctx.lo.p.layout.Symbolics, n)
	})
	if err != nil && err != sem.ErrNotConst {
		err = fmt.Errorf("vm: %w", err)
	}
	return vmConst{val: v, width: w}, err
}

// --- operand resolution ---------------------------------------------------

// vmField is a resolved struct-field reference: its interned slot,
// declared width, and whether it is a header field.
type vmField struct {
	slot   int32
	width  int
	header bool
}

// fieldRef resolves a struct-field reference. An elastic field's
// instance index must be compile-time constant.
func (ctx *vmStepCtx) fieldRef(ref *lang.Ref) (vmField, error) {
	si := ctx.lo.p.unit.StructByName(ref.Base())
	if si == nil || len(ref.Segs) != 2 {
		return vmField{}, fmt.Errorf("vm: not a struct field: %s", lang.PrintExpr(ref))
	}
	f := si.Field(ref.Segs[1].Name)
	if f == nil {
		return vmField{}, fmt.Errorf("vm: unknown field %s", lang.PrintExpr(ref))
	}
	key := f.Qual()
	if f.Elastic() {
		fseg := ref.Segs[1]
		if len(fseg.Indexes) != 1 {
			return vmField{}, fmt.Errorf("vm: elastic field %s needs one index", key)
		}
		ie, err := ctx.constExpr(fseg.Indexes[0])
		if err != nil {
			return vmField{}, fmt.Errorf("vm: elastic field %s index: %w", key, err)
		}
		key = sem.InstKey(key, ie.val)
	}
	return vmField{slot: ctx.lo.slotFor(key, si.IsHeader), width: f.Width, header: si.IsHeader}, nil
}

// metaOperand resolves a motif operand: a metadata field (meta loads
// are unmasked: slots only ever hold store-masked values).
func (ctx *vmStepCtx) metaOperand(e lang.Expr) (slot int32, width int, err error) {
	ref, ok := e.(*lang.Ref)
	if !ok {
		return 0, 0, fmt.Errorf("vm: operand %T is not a field", e)
	}
	f, err := ctx.fieldRef(ref)
	if err != nil {
		return 0, 0, err
	}
	if f.header {
		return 0, 0, fmt.Errorf("vm: %s is not a meta operand", lang.PrintExpr(ref))
	}
	return f.slot, f.width, nil
}

// regTarget resolves a register reference to its backing store (nil
// when the layout did not materialize the instance: loads read zero and
// stores vanish, as in the interpreter), the store's dense id, and the
// cell-index expression.
func (ctx *vmStepCtx) regTarget(ref *lang.Ref, reg *lang.Register) (store []uint64, regID int32, cellE lang.Expr, err error) {
	seg := ref.Segs[0]
	inst := 0
	switch {
	case reg.Decl.Count != nil && len(seg.Indexes) == 2:
		ic, err := ctx.constExpr(seg.Indexes[0])
		if err != nil {
			return nil, 0, nil, fmt.Errorf("vm: register %s instance index: %w", reg.Name, err)
		}
		inst, cellE = int(ic.val), seg.Indexes[1]
	case len(seg.Indexes) == 1:
		cellE = seg.Indexes[0]
	default:
		return nil, 0, nil, fmt.Errorf("vm: malformed register access %s", lang.PrintExpr(ref))
	}
	store, ok := ctx.lo.p.Register(reg.Name, inst)
	if !ok {
		return nil, -1, cellE, nil
	}
	if len(store) == 0 {
		return nil, 0, nil, fmt.Errorf("vm: register %s/%d has no cells", reg.Name, inst)
	}
	return store, ctx.lo.regIDFor(reg.Name, inst), cellE, nil
}

// regAccess resolves a motif register access: a materialized instance
// with the cell index held in a metadata field (the library's
// "@_meta.index[i]" motif).
func (ctx *vmStepCtx) regAccess(ref *lang.Ref, reg *lang.Register) (store []uint64, cellSlot int32, regID int32, err error) {
	store, regID, cellE, err := ctx.regTarget(ref, reg)
	if err != nil {
		return nil, 0, 0, err
	}
	if store == nil {
		return nil, 0, 0, fmt.Errorf("vm: register access %s is not the motif", lang.PrintExpr(ref))
	}
	cellSlot, _, err = ctx.metaOperand(cellE)
	return store, cellSlot, regID, err
}

// --- statements -----------------------------------------------------------

func (ctx *vmStepCtx) lowerBlock(b *lang.Block) error {
	ctx.pending = ctx.pending.Add(ctx.plan.Arms[b])
	for _, s := range b.Stmts {
		if err := ctx.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ctx *vmStepCtx) lowerStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return ctx.lowerBlock(s)
	case *lang.AssignStmt:
		if !ctx.lo.genericOnly && ctx.matchAssign(s) == nil {
			return nil
		}
		return ctx.genAssign(s)
	case *lang.IfStmt:
		if _, err := ctx.genExpr(s.Cond); err != nil {
			return err
		}
		br := ctx.emit(vmInst{op: opBranchFalse})
		if err := ctx.lowerBlock(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			ctx.patch(br)
			return nil
		}
		skip := ctx.emit(vmInst{op: opJump})
		ctx.patch(br)
		if err := ctx.lowerBlock(s.Else); err != nil {
			return err
		}
		ctx.patch(skip)
		return nil
	default:
		return fmt.Errorf("vm: unsupported statement %T in action %s", s, ctx.st.Inv.Action.Name)
	}
}

// matchAssign offers an assignment to the motif matchers. They emit
// nothing unless they match, so a non-nil error only means "no motif";
// genAssign decides whether the statement lowers at all.
func (ctx *vmStepCtx) matchAssign(s *lang.AssignStmt) error {
	u := ctx.lo.p.unit
	if reg := u.RegisterByName(s.LHS.Base()); reg != nil {
		return ctx.matchRegBump(s, reg)
	}
	lhs, err := ctx.fieldRef(s.LHS)
	if err != nil {
		return err
	}
	if lhs.header {
		return errNoMotif
	}
	dst, dmask := lhs.slot, sem.WidthMask(lhs.width)

	// Constant right-hand side: fold it.
	if c, err := ctx.constExpr(s.RHS); err == nil {
		ctx.emit(vmInst{op: opConstSlot, dst: dst, imm: c.val & dmask})
		return nil
	}

	switch rhs := s.RHS.(type) {
	case *lang.Ref:
		if reg := u.RegisterByName(rhs.Base()); reg != nil {
			store, cellSlot, regID, err := ctx.regAccess(rhs, reg)
			if err != nil {
				return err
			}
			ctx.emit(vmInst{
				op: opRegLoadSlot, a: cellSlot, dst: dst, dmask: dmask,
				store: store, ncells: uint64(len(store)), regID: regID,
			})
			return nil
		}
		src, _, err := ctx.metaOperand(rhs)
		if err != nil {
			return err
		}
		ctx.emit(vmInst{op: opMovSlot, a: src, dst: dst, dmask: dmask})
		return nil
	case *lang.Binary:
		switch rhs.Op {
		case lang.PCT:
			return ctx.matchHashMod(rhs, dst, dmask)
		case lang.PLUS:
			return ctx.matchAdd(rhs, dst, dmask)
		}
	}
	return errNoMotif
}

// matchHashMod matches the index-computation motif
// "hash(hdr, seed) % modulus" with a constant seed and modulus.
func (ctx *vmStepCtx) matchHashMod(b *lang.Binary, dst int32, dmask uint64) error {
	call, ok := b.X.(*lang.CallExpr)
	if !ok || call.Name != "hash" || len(call.Args) != 2 {
		return errNoMotif
	}
	href, ok := call.Args[0].(*lang.Ref)
	if !ok {
		return errNoMotif
	}
	key, err := ctx.fieldRef(href)
	if err != nil {
		return err
	}
	seed, err := ctx.constExpr(call.Args[1])
	if err != nil {
		return err
	}
	div, err := ctx.constExpr(b.Y)
	if err != nil {
		return err
	}
	if !key.header || div.val == 0 {
		return errNoMotif
	}
	// hash yields width 64, so the modulo result's combined-width wrap
	// is the identity; only the header load mask and the destination
	// mask survive to runtime.
	ctx.emit(vmInst{
		op: opHashModSlot, a: key.slot, dst: dst,
		mask: sem.WidthMask(key.width), imm: seed.val, imm2: div.val, dmask: dmask,
	})
	return nil
}

// matchAdd matches the fold motifs: meta+meta, and the left-nested
// three-way meta+meta+meta.
func (ctx *vmStepCtx) matchAdd(b *lang.Binary, dst int32, dmask uint64) error {
	if inner, ok := b.X.(*lang.Binary); ok && inner.Op == lang.PLUS {
		a, wa, err := ctx.metaOperand(inner.X)
		if err != nil {
			return err
		}
		b2, wb, err := ctx.metaOperand(inner.Y)
		if err != nil {
			return err
		}
		c, wc, err := ctx.metaOperand(b.Y)
		if err != nil {
			return err
		}
		innerW := sem.CombineWidth(wa, wb)
		outerW := sem.CombineWidth(innerW, wc)
		ctx.emit(vmInst{
			op: opAdd3Slot, a: a, b: b2, c: c, dst: dst,
			mask: sem.WidthMask(innerW), mask2: sem.WidthMask(outerW) & dmask,
		})
		return nil
	}
	a, wa, err := ctx.metaOperand(b.X)
	if err != nil {
		return err
	}
	b2, wb, err := ctx.metaOperand(b.Y)
	if err != nil {
		return err
	}
	ctx.emit(vmInst{
		op: opAdd2Slot, a: a, b: b2, dst: dst,
		mask: sem.WidthMask(sem.CombineWidth(wa, wb)) & dmask,
	})
	return nil
}

// matchRegBump matches the read-modify-write motif
// "reg[i][cell] = reg[i][cell] + addend" (same cell on both sides,
// compared syntactically) with a constant addend.
func (ctx *vmStepCtx) matchRegBump(s *lang.AssignStmt, reg *lang.Register) error {
	rb, ok := s.RHS.(*lang.Binary)
	if !ok || rb.Op != lang.PLUS {
		return errNoMotif
	}
	xref, ok := rb.X.(*lang.Ref)
	if !ok || lang.PrintExpr(xref) != lang.PrintExpr(s.LHS) {
		return errNoMotif
	}
	add, err := ctx.constExpr(rb.Y)
	if err != nil {
		return err
	}
	store, cellSlot, regID, err := ctx.regAccess(s.LHS, reg)
	if err != nil {
		return err
	}
	// The add wraps at the combined operand width; the store masks at
	// the register width. The addend is width-0 (a constant), so the
	// two masks compose into one.
	mask := sem.WidthMask(sem.CombineWidth(reg.Width, add.width)) & sem.WidthMask(reg.Width)
	ctx.emit(vmInst{
		op: opRegBumpSlot, a: cellSlot, imm: add.val, mask: mask,
		store: store, ncells: uint64(len(store)), regID: regID,
	})
	return nil
}

// --- guards ---------------------------------------------------------------

// lowerGuard emits a conditional forward jump for a step guard and
// returns its index; lowerStep patches the target to the step end. An
// LT/EQ motif is one instruction; every other guard evaluates on the
// generic core.
func (ctx *vmStepCtx) lowerGuard(g lang.Expr) (int, error) {
	if !ctx.lo.genericOnly {
		if in, ok := ctx.matchGuard(g); ok {
			return ctx.emit(in), nil
		}
	}
	if _, err := ctx.genExpr(g); err != nil {
		return 0, err
	}
	return ctx.emit(vmInst{op: opBranchFalse}), nil
}

func (ctx *vmStepCtx) matchGuard(g lang.Expr) (vmInst, bool) {
	b, ok := g.(*lang.Binary)
	if !ok {
		return vmInst{}, false
	}
	a, _, err := ctx.metaOperand(b.X)
	if err != nil {
		return vmInst{}, false
	}
	switch b.Op {
	case lang.LT:
		if b2, _, err := ctx.metaOperand(b.Y); err == nil {
			return vmInst{op: opGuardLT, a: a, b: b2}, true
		}
	case lang.EQ:
		if y, err := ctx.constExpr(b.Y); err == nil {
			return vmInst{op: opGuardEQImm, a: a, imm: y.val}, true
		}
	}
	return vmInst{}, false
}

// --- generic core ---------------------------------------------------------

// genAssign lowers any assignment in the interpreter's evaluation
// order: right-hand side, then the target's index expressions, then
// the store.
func (ctx *vmStepCtx) genAssign(s *lang.AssignStmt) error {
	if _, err := ctx.genExpr(s.RHS); err != nil {
		return err
	}
	if reg := ctx.lo.p.unit.RegisterByName(s.LHS.Base()); reg != nil {
		in, err := ctx.genRegCell(s.LHS, reg)
		if err != nil {
			return err
		}
		in.op, in.mask = opRegStore, sem.WidthMask(reg.Width)
		ctx.emit(in)
		return nil
	}
	f, err := ctx.fieldRef(s.LHS)
	if err != nil {
		return err
	}
	ctx.emit(vmInst{op: opStore, dst: f.slot, dmask: sem.WidthMask(f.width)})
	return nil
}

// genRegCell pushes a register access's cell index and returns the
// access instruction with its store filled in.
func (ctx *vmStepCtx) genRegCell(ref *lang.Ref, reg *lang.Register) (vmInst, error) {
	store, regID, cellE, err := ctx.regTarget(ref, reg)
	if err != nil {
		return vmInst{}, err
	}
	if _, err := ctx.genExpr(cellE); err != nil {
		return vmInst{}, err
	}
	return vmInst{store: store, ncells: uint64(len(store)), regID: regID}, nil
}

var vmBuiltins = map[string]int32{"hash": callHash, "min": callMin, "max": callMax}

// genExpr emits stack code leaving e's value on top and returns the
// bit width the value wraps at (see sem's walker).
func (ctx *vmStepCtx) genExpr(e lang.Expr) (int, error) {
	c, err := ctx.constExpr(e)
	if err == nil {
		ctx.emit(vmInst{op: opPushImm, imm: c.val})
		return c.width, nil
	}
	if err != sem.ErrNotConst {
		return 0, err
	}
	switch e := e.(type) {
	case *lang.Unary:
		// -x is 0 - x and !x is x == 0: same value and width as the
		// interpreter's unary case.
		switch e.Op {
		case lang.MINUS:
			return ctx.genBinary(&lang.Binary{Op: lang.MINUS, X: &lang.IntLit{}, Y: e.X})
		case lang.NOT:
			return ctx.genBinary(&lang.Binary{Op: lang.EQ, X: e.X, Y: &lang.IntLit{}})
		}
		return 0, fmt.Errorf("vm: unsupported unary %s", e.Op)
	case *lang.Binary:
		return ctx.genBinary(e)
	case *lang.CallExpr:
		id, ok := vmBuiltins[e.Name]
		if !ok {
			return 0, fmt.Errorf("vm: unknown builtin %s", e.Name)
		}
		wx, err := ctx.genExpr(e.Args[0])
		if err != nil {
			return 0, err
		}
		wy, err := ctx.genExpr(e.Args[1])
		if err != nil {
			return 0, err
		}
		ctx.emit(vmInst{op: opCall, b: id})
		return sem.CallWidth(e.Name, wx, wy), nil
	case *lang.Ref:
		if reg := ctx.lo.p.unit.RegisterByName(e.Base()); reg != nil {
			in, err := ctx.genRegCell(e, reg)
			if err != nil {
				return 0, err
			}
			in.op = opRegLoad
			ctx.emit(in)
			return reg.Width, nil
		}
		f, err := ctx.fieldRef(e)
		if err != nil {
			return 0, err
		}
		mask := ^uint64(0) // meta slots only ever hold store-masked values
		if f.header {
			mask = sem.WidthMask(f.width) // the packet may carry a wider value
		}
		ctx.emit(vmInst{op: opPush, a: f.slot, mask: mask})
		return f.width, nil
	default:
		return 0, fmt.Errorf("vm: unsupported expression %T", e)
	}
}

func (ctx *vmStepCtx) genBinary(e *lang.Binary) (int, error) {
	if e.Op == lang.AND || e.Op == lang.OR {
		// A constant left operand that decides the result folds to it,
		// skipping the right operand as the interpreter would.
		decides := b2u(e.Op == lang.OR)
		if x, err := ctx.constExpr(e.X); err == nil && b2u(x.val != 0) == decides {
			ctx.emit(vmInst{op: opPushImm, imm: decides})
			return 0, nil
		}
		if _, err := ctx.genExpr(e.X); err != nil {
			return 0, err
		}
		sc := ctx.emit(vmInst{op: opShortCircuit, imm: decides})
		if _, err := ctx.genExpr(e.Y); err != nil {
			return 0, err
		}
		// The left operand did not decide, so x op y is just y != 0.
		ctx.emit(vmInst{op: opPushImm})
		ctx.emit(vmInst{op: opBin, b: int32(lang.NE), mask: ^uint64(0)})
		ctx.patch(sc)
		return 0, nil
	}
	wx, err := ctx.genExpr(e.X)
	if err != nil {
		return 0, err
	}
	wy, err := ctx.genExpr(e.Y)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case lang.SLASH, lang.PCT:
		switch d, err := ctx.constExpr(e.Y); {
		case err != nil:
			ctx.lo.pr.mayAbort = true
		case d.val == 0:
			return 0, fmt.Errorf("vm: constant zero divisor in %s", lang.PrintExpr(e))
		}
	case lang.PLUS, lang.MINUS, lang.STAR, lang.LT, lang.LE, lang.GT, lang.GE, lang.EQ, lang.NE:
	default:
		return 0, fmt.Errorf("vm: unsupported operator %s", e.Op)
	}
	w := sem.OpWidth(e.Op, wx, wy)
	ctx.emit(vmInst{op: opBin, b: int32(e.Op), mask: sem.WidthMask(w)})
	return w, nil
}
