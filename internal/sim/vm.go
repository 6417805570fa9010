// Bytecode VM: the compiled execution engine. The lowering (lower.go)
// turns the whole placed schedule into one flat instruction stream over
// a dense slot frame, dispatched through one switch.
//
// Two kinds of instruction share the stream:
//
//   - superinstructions: one opcode per complete statement or guard
//     motif the module library emits (hash→mod→store, register
//     read-modify-write, guarded min-fold compare), with width masks
//     and register cell wrapping precomputed at lower time, and no
//     call or map lookup per packet. They are the fast path: every step
//     of the four suite apps lowers to them, and they are the only
//     opcodes batch.go's vector executor runs;
//   - opStep: one whole step that some guard or statement keeps off
//     the fast path, run on sem's walker — the interpreter's evaluator
//     — over a domain on the frame (vmDom). It runs lane-major only, in
//     a serial segment.
//
// Either way the VM keeps the reference interpreter's outputs, register
// contents and Stats bit for bit (lower.go). Every superinstruction
// adds its precomputed charge to its stage, a block's charge riding on
// the block's first instruction; an opStep charges as the walker runs
// its plan. Every field and register instance a step touches is the
// one the resolver bound, so it has a frame slot or a store at lower
// time. A program the lowering still rejects — a materialized register
// instance with no cells, or a stage charging more per packet than the
// packed counters hold — falls back to the interpreter wholesale
// (Pipeline.Fallback); a fallback on any program the repo ships is a
// difftest failure.

package sim

import (
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
	"p4all/internal/structures"
)

// vmOp enumerates the VM's opcodes: nine superinstructions, then
// opStep. Every opcode must be reachable from a checked-in program —
// the opcode-coverage test in vm_test.go fails on a dead lowering path
// — and the programs it names must lower to superinstructions only.
type vmOp uint8

const (
	// opConstSlot stores a compile-time constant into a meta slot:
	// vals[dst] = imm (pre-masked).
	opConstSlot vmOp = iota
	// opHashModSlot is the index-computation superinstruction:
	// vals[dst] = (hash(hdr(a) & mask, imm) % imm2) & dmask.
	opHashModSlot
	// opMovSlot copies one meta slot to another: vals[dst] = meta(a) & dmask.
	opMovSlot
	// opAdd2Slot adds two meta slots: vals[dst] = (meta(a) + meta(b)) & mask.
	opAdd2Slot
	// opAdd3Slot is the three-way fold superinstruction:
	// vals[dst] = (((meta(a) + meta(b)) & mask) + meta(c)) & mask2.
	opAdd3Slot
	// opRegBumpSlot is the register read-modify-write superinstruction:
	// cell = meta(a) wrapped at ncells; store[cell] = (store[cell] + imm) & mask.
	// Counts one read and one write.
	opRegBumpSlot
	// opRegLoadSlot loads a register cell into a meta slot:
	// cell = meta(a) wrapped; vals[dst] = store[cell] & dmask. One read.
	opRegLoadSlot
	// opGuardLT evaluates the guard meta(a) < meta(b); on failure it
	// jumps to target (the end of the guarded step).
	opGuardLT
	// opGuardEQImm evaluates the guard meta(a) == imm; on failure it
	// jumps to target.
	opGuardEQImm
	// opStep runs the whole step in.step on sem's walker (vmDom): its
	// guards, then its body. A packet the walker stops (a zero divisor,
	// an unknown name) aborts with the interpreter's error.
	opStep

	vmOpCount // number of opcodes; keep last
)

var vmOpNames = [vmOpCount]string{
	opConstSlot:   "ConstSlot",
	opHashModSlot: "HashModSlot",
	opMovSlot:     "MovSlot",
	opAdd2Slot:    "Add2Slot",
	opAdd3Slot:    "Add3Slot",
	opRegBumpSlot: "RegBumpSlot",
	opRegLoadSlot: "RegLoadSlot",
	opGuardLT:     "GuardLT",
	opGuardEQImm:  "GuardEQImm",
	opStep:        "Step",
}

func (o vmOp) String() string {
	if int(o) < len(vmOpNames) {
		return vmOpNames[o]
	}
	return "vmOp(?)"
}

// vmInst is one decoded instruction. Operand slots index the frame's
// interned fields; masks and charges are precomputed by the lowering.
type vmInst struct {
	op     vmOp
	charge uint64 // packed charge (packCharge) added when this instruction executes
	ctr    int32  // frame ALU accumulator index (stage, or the dummy)
	a      int32  // first operand slot
	b      int32  // second operand slot
	c      int32  // third operand slot (opAdd3Slot)
	dst    int32  // destination slot
	target int32  // jump target (forward only)
	imm    uint64 // constant operand / hash seed / guard comparand / addend
	imm2   uint64 // modulus (opHashModSlot)
	mask   uint64 // operation wrap mask
	mask2  uint64 // outer wrap mask (opAdd3Slot)
	dmask  uint64 // destination field width mask
	store  []uint64
	ncells uint64  // len(store), hoisted
	regID  int32   // dense register-instance id; -1 when no register
	step   *vmStep // opStep's step and its frame bindings
	// uncond is true when this pc lies inside no jump's skip interval
	// (jump pc, target): every lane reaches it, so the vector executor
	// runs it on all lanes without reading or writing their program
	// counters (see markUncond and execVec in batch.go). Never set on
	// opRegBumpSlot.
	uncond bool
}

// vmProg is a lowered program: the instruction stream, the field
// interning tables (slotKeys maps a slot back to its flattened key, in
// interning order; output assembly walks it), the header fields load
// seeds from each packet (hdrKeys[j] lives in slot hdrSlots[j], cut to
// hdrMasks[j]; meta slots start absent every packet) and the batch
// execution segments derived from register hazard analysis (see
// batch.go).
type vmProg struct {
	p         *Pipeline
	fieldSlot map[string]int32
	slotKeys  []string
	hdrKeys   []string
	hdrSlots  []int32
	hdrMasks  []uint64
	code      []vmInst
	segs      []vmSeg
	// mayAbort is set when the walk of some opStep can stop a packet:
	// a divisor that is zero or known only at run time, an unknown
	// name, a construct the walker does not evaluate.
	mayAbort bool
}

// vmStep is what one opStep runs: the step, and the frame bindings of
// every field instance and materialized register instance its walk can
// touch (stepScan in lower.go).
type vmStep struct {
	st     *sem.Step
	fields []vmStepField
	regs   []vmStepReg
}

// vmStepField is a field instance and its frame slot.
type vmStepField struct {
	f    *lang.MetaField
	idx  uint64
	slot int32
}

// vmStepReg is a materialized register instance: its store, its dense
// id, and whether the step may write it (segmentize reads both).
type vmStepReg struct {
	name   string
	inst   int64
	store  []uint64
	ncells uint64
	id     int32
	write  bool
}

// vmLanes is the struct-of-arrays batch width: Replay runs up to this
// many packets per batch. Frame arrays are slot-major with this fixed
// stride so lane indexing is a shift, not a multiply by a variable.
const vmLanes = 64

// vmFrame is the reusable struct-of-arrays packet frame: slot s of lane
// l lives at index s*vmLanes+l. A slot is live for the current batch
// iff its stamp equals gen. Stats accumulate in frame-local counters
// (batch execution is instruction-major, so per-stage totals — which
// are order-free — are the only accounting that survives; flushStats
// folds them into Pipeline.stats after every run). pkt[l] is lane l's
// caller packet, read, never written: a field the program does not
// touch (an unknown key, or one named like a meta field, which the
// interpreter also keeps out of metadata) is read from it, not copied.
// Replay and Process clear pkt before returning.
type vmFrame struct {
	vals  []uint64
	stamp []uint64
	gen   uint64
	lanes int
	// next[l] is lane l's program counter between batch segments; a
	// vector segment executes instruction pc for lane l iff next[l]==pc.
	next   [vmLanes]int32
	pkt    [vmLanes]Packet
	alu    []uint64 // per-stage packed charges + trailing dummy
	reads  uint64
	writes uint64
	err    error // set by an aborting opStep; taken by run1/runBatch
}

func newVMFrame(pr *vmProg, nstages int) vmFrame {
	return vmFrame{
		vals:  make([]uint64, len(pr.slotKeys)*vmLanes),
		stamp: make([]uint64, len(pr.slotKeys)*vmLanes),
		alu:   make([]uint64, nstages+1),
	}
}

// ld reads a meta/header slot for one lane: zero when the slot was not
// written this batch, the interpreter's absent-field semantics.
func (fr *vmFrame) ld(slot int32, lane int) uint64 {
	i := int(slot)*vmLanes + lane
	if fr.stamp[i] == fr.gen {
		return fr.vals[i]
	}
	return 0
}

// st writes a meta slot for one lane and marks it live.
func (fr *vmFrame) st(slot int32, lane int, v uint64) {
	i := int(slot)*vmLanes + lane
	fr.vals[i] = v
	fr.stamp[i] = fr.gen
}

// exec runs one lane from pc to end (lane-major execution: Process, and
// the serial segments of a batch). Jumps go forward only, so the
// returned pc is >= end; a target past end belongs to a later segment.
// An aborting opStep records the error in the frame and returns past
// the end of the program, parking the lane.
func (pl *vmProg) exec(fr *vmFrame, lane int, pc, end int32) int32 {
	code := pl.code
	for pc < end {
		in := &code[pc]
		fr.alu[in.ctr] += in.charge
		switch in.op {
		case opConstSlot:
			fr.st(in.dst, lane, in.imm)
		case opHashModSlot:
			v := structures.Hash(fr.ld(in.a, lane)&in.mask, in.imm) % in.imm2
			fr.st(in.dst, lane, v&in.dmask)
		case opMovSlot:
			fr.st(in.dst, lane, fr.ld(in.a, lane)&in.dmask)
		case opAdd2Slot:
			fr.st(in.dst, lane, (fr.ld(in.a, lane)+fr.ld(in.b, lane))&in.mask)
		case opAdd3Slot:
			v := (fr.ld(in.a, lane) + fr.ld(in.b, lane)) & in.mask
			fr.st(in.dst, lane, (v+fr.ld(in.c, lane))&in.mask2)
		case opRegBumpSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			fr.reads++
			in.store[cell] = (in.store[cell] + in.imm) & in.mask
			fr.writes++
		case opRegLoadSlot:
			cell := fr.ld(in.a, lane)
			if cell >= in.ncells {
				cell %= in.ncells
			}
			fr.reads++
			fr.st(in.dst, lane, in.store[cell]&in.dmask)
		case opGuardLT:
			if fr.ld(in.a, lane) >= fr.ld(in.b, lane) {
				pc = in.target
				continue
			}
		case opGuardEQImm:
			if fr.ld(in.a, lane) != in.imm {
				pc = in.target
				continue
			}
		case opStep:
			d := vmDom{fr: fr, lane: lane, in: in}
			if err := sem.Exec[uint64](d, pl.p.unit, pl.p.layout.Symbolics, in.step.st); err != nil {
				fr.err = err
				return int32(len(code))
			}
		}
		pc++
	}
	return pc
}

// vmDom is the VM's domain for sem's walker: one lane of the frame,
// running opStep in. Fields are the frame's slots, registers the
// stores in.step binds, reads and writes the frame's counters, and
// charges the step's packed stage counter; the uint64 leaves are the
// interpreter's.
type vmDom struct {
	leaves
	fr   *vmFrame
	lane int
	in   *vmInst
}

func (d vmDom) Charge(c pisa.ActionProfile) { d.fr.alu[d.in.ctr] += packCharge(c) }

// reg returns the bound register instance, nil for one the layout did
// not materialize.
func (d vmDom) reg(name string, inst int64) *vmStepReg {
	regs := d.in.step.regs
	for i := range regs {
		if regs[i].inst == inst && regs[i].name == name {
			return &regs[i]
		}
	}
	return nil
}

// RegRead wraps the cell at the instance's extent and counts one read;
// an instance the layout did not materialize reads as zero, uncounted.
func (d vmDom) RegRead(name string, inst int64, cell uint64, width int) uint64 {
	r := d.reg(name, inst)
	if r == nil {
		return 0
	}
	d.fr.reads++
	return r.store[cell%r.ncells]
}

// RegWrite stores the value masked to the register's width and counts
// one write; a write to an instance the layout did not materialize is
// a no-op.
func (d vmDom) RegWrite(name string, inst int64, cell, v uint64, width int) {
	r := d.reg(name, inst)
	if r == nil {
		return
	}
	r.store[cell%r.ncells] = sem.MaskTo(v, width)
	d.fr.writes++
}

// slot returns a field instance's frame slot; the lowering bound every
// instance the walk can reach.
func (d vmDom) slot(f sem.Field) int32 {
	for _, b := range d.in.step.fields {
		if b.f == f.MetaField && b.idx == f.Idx {
			return b.slot
		}
	}
	panic("sim: opStep reached unbound field " + f.Key())
}

// FieldRead reads a header field masked to its width, a metadata field
// as written; a field not written this packet reads zero.
func (d vmDom) FieldRead(f sem.Field) uint64 {
	v := d.fr.ld(d.slot(f), d.lane)
	if f.Header {
		v = sem.MaskTo(v, f.Width)
	}
	return v
}

func (d vmDom) FieldWrite(f sem.Field, v uint64) {
	d.fr.st(d.slot(f), d.lane, sem.MaskTo(v, f.Width))
}

// takeErr flushes the frame's counters and returns (clearing) the abort
// the run recorded, if any. Flushing first is what leaves Stats exactly
// where the interpreter leaves them when a packet fails.
func (pl *vmProg) takeErr(fr *vmFrame) error {
	pl.flushStats(fr)
	err := fr.err
	fr.err = nil
	return err
}

// load seeds one lane from pkt: one lookup per header field the
// program touches, its value cut to the field's declared width. The
// lane keeps pkt for every other field.
func (pl *vmProg) load(fr *vmFrame, lane int, pkt Packet) {
	fr.pkt[lane] = pkt
	for j, k := range pl.hdrKeys {
		if v, ok := pkt.Get(k); ok {
			fr.st(pl.hdrSlots[j], lane, v&pl.hdrMasks[j])
		}
	}
}

// run1 pushes a single packet through lane 0 (the Process path).
func (pl *vmProg) run1(fr *vmFrame, pkt Packet) error {
	pl.p.stats.Packets++
	fr.gen++
	fr.lanes = 1
	pl.load(fr, 0, pkt)
	pl.exec(fr, 0, 0, int32(len(pl.code)))
	return pl.takeErr(fr)
}

// chargeBits is the width of each unit's field in a packed charge, so
// an instruction charges its stage with one add: stateful ALUs in the
// low field, stateless ALUs above them, hash units on top. The frame
// flushes at least every vmLanes packets, and the lowering rejects a
// program whose stage could overflow a field in that many.
const chargeBits = 21

func packCharge(c pisa.ActionProfile) uint64 {
	return uint64(c.RegisterAccesses) | uint64(c.StatelessOps)<<chargeBits | uint64(c.Hashes)<<(2*chargeBits)
}

func unpackCharge(v uint64) pisa.ActionProfile {
	const field = 1<<chargeBits - 1
	return pisa.ActionProfile{
		RegisterAccesses: int(v & field),
		StatelessOps:     int(v >> chargeBits & field),
		Hashes:           int(v >> (2 * chargeBits) & field),
	}
}

// flushStats folds the frame-local accumulators into the pipeline's
// counters; the trailing dummy accumulator (out-of-range stages)
// mirrors the interpreter's bounds check and is discarded.
func (pl *vmProg) flushStats(fr *vmFrame) {
	stats := &pl.p.stats
	for i := range stats.ALUs {
		if fr.alu[i] != 0 {
			stats.ALUs[i] = stats.ALUs[i].Add(unpackCharge(fr.alu[i]))
			fr.alu[i] = 0
		}
	}
	fr.alu[len(stats.ALUs)] = 0
	stats.RegReads += fr.reads
	stats.RegWrites += fr.writes
	fr.reads, fr.writes = 0, 0
}

// output materializes one lane as the map Process returns: live slots
// in interning order, then the packet's fields that no live slot and
// no earlier field of the same name shadows, matching the
// interpreter's header-then-meta merge order.
func (pl *vmProg) output(fr *vmFrame, lane int) map[string]uint64 {
	pkt := fr.pkt[lane]
	out := make(map[string]uint64, len(pl.slotKeys)+len(pkt))
	for s, key := range pl.slotKeys {
		i := s*vmLanes + lane
		if fr.stamp[i] == fr.gen {
			out[key] = fr.vals[i]
		}
	}
	for _, f := range pkt {
		if _, ok := out[f.Name]; !ok {
			out[f.Name] = f.Value & pl.p.inputMask(f.Name)
		}
	}
	return out
}
