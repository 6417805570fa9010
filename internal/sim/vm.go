// Bytecode VM: the compiled execution engine. The lowering (lower.go)
// turns the whole placed schedule into one flat instruction stream over
// a dense slot frame, dispatched through one switch — no call per
// operator, no call per statement, no map on the per-packet path.
//
// Two instruction families share the stream:
//
//   - superinstructions: one opcode per complete statement or guard
//     motif the module library emits (hash→mod→store, register
//     read-modify-write, guarded min-fold compare), with width masks,
//     ALU charges, and register cell wrapping precomputed at lower time.
//     They are the fast path — the only opcodes the four suite apps
//     lower to, and the only ones batch.go's vector executor runs;
//   - the generic core: a small operand-stack machine (push, binary,
//     call, short-circuit, register load/store, slot store, branch,
//     jump; unary minus and not lower to 0 - x and x == 0) that covers
//     every construct the interpreter evaluates and no motif matches.
//     Generic instructions run lane-major only (execGeneric, entered
//     from exec's default case).
//
// Either way the VM obeys the observational contract spelled out in
// lower.go: bit-identical outputs, register contents, and Stats versus
// the reference interpreter. Programs the lowering cannot compile fall
// back to the interpreter wholesale (Pipeline.Fallback); a fallback on
// any program the repo ships is a difftest failure.

package sim

import (
	"p4all/internal/lang"
	"p4all/internal/structures"
)

// vmOp enumerates the VM's opcodes: nine superinstructions, then the
// generic core (opPush and up). Every opcode must be reachable from a
// checked-in program — the opcode-coverage test in vm_test.go fails on
// a dead lowering path — and the four suite apps must lower to
// superinstructions only.
type vmOp uint8

const (
	// opConstSlot stores a compile-time constant into a meta slot:
	// vals[dst] = imm (pre-masked). charge carries the folded subtree's
	// deferred ALU cost.
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
	// Counts one read, one write, and one ALU op.
	opRegBumpSlot
	// opRegLoadSlot loads a register cell into a meta slot:
	// cell = meta(a) wrapped; vals[dst] = store[cell] & dmask. One read.
	opRegLoadSlot
	// opGuardLT evaluates the guard meta(a) < meta(b); on failure it
	// jumps to target (the end of the guarded step). One ALU op,
	// charged whether or not the guard passes, as in the interpreter.
	opGuardLT
	// opGuardEQImm evaluates the guard meta(a) == imm; on failure it
	// jumps to target.
	opGuardEQImm

	// --- generic core: operands live on the frame's per-lane stack ---

	// opPush pushes a header/meta slot: ld(a) & mask (mask is the header
	// field's width, all-ones for meta). charge carries the folded cost
	// of an elastic field's constant index.
	opPush
	// opPushImm pushes the constant imm; charge carries the folded
	// subtree's deferred ALU cost.
	opPushImm
	// opBin pops y, replaces x with (x b y) & mask; b is the lang.Kind.
	// A zero divisor aborts the packet with the interpreter's error.
	opBin
	// opCall pops y, replaces x with builtin b (callHash/Min/Max) of x, y.
	opCall
	// opShortCircuit decides && (imm 0) or || (imm 1) on its left
	// operand: when (top != 0) == (imm != 0) the result imm stays on the
	// stack and control jumps to target, past the right operand and the
	// operator's charge; otherwise the operand is popped.
	opShortCircuit
	// opRegLoad pops the cell index and pushes store[cell wrapped]; one
	// read. A nil store (instance not in the layout) pushes 0, no read.
	opRegLoad
	// opRegStore pops the cell index, then the value: store[cell
	// wrapped] = value & mask; one write. A nil store is a no-op.
	opRegStore
	// opStore pops into a header or meta slot: vals[dst] = top & dmask.
	opStore
	// opBranchFalse pops; zero jumps to target (guards, if-statements).
	opBranchFalse
	// opJump jumps to target (skipping an else-block; with target pc+1
	// it is the no-op that carries a register instance index's charge).
	opJump

	vmOpCount // number of opcodes; keep last
)

// Builtins opCall dispatches on.
const (
	callHash = iota
	callMin
	callMax
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

	opPush:         "Push",
	opPushImm:      "PushImm",
	opBin:          "Bin",
	opCall:         "Call",
	opShortCircuit: "ShortCircuit",
	opRegLoad:      "RegLoad",
	opRegStore:     "RegStore",
	opStore:        "Store",
	opBranchFalse:  "BranchFalse",
	opJump:         "Jump",
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
	charge uint32 // ALU ops charged when this instruction executes
	ctr    int32  // frame ALU accumulator index (stage, or the dummy)
	a      int32  // first operand slot
	b      int32  // second operand slot; lang.Kind or builtin id in the generic core
	c      int32  // third operand slot (opAdd3Slot)
	dst    int32  // destination slot
	target int32  // jump target (forward only)
	imm    uint64 // constant operand / hash seed / guard comparand / addend
	imm2   uint64 // modulus (opHashModSlot)
	mask   uint64 // operation wrap mask
	mask2  uint64 // outer wrap mask (opAdd3Slot)
	dmask  uint64 // destination field width mask
	store  []uint64
	ncells uint64 // len(store), hoisted
	regID  int32  // dense register-instance id; -1 when no register
	// uncond is true when this pc lies inside no guard's skip interval
	// (guard pc, target): every lane reaches it, so batch execution can
	// skip the per-lane pc bookkeeping entirely (see markUncond and
	// execVec in batch.go). Never set on opRegBumpSlot.
	uncond bool
}

// vmProg is a lowered program: the instruction stream, the field
// interning tables (slotKeys maps a slot back to its flattened key, in
// interning order; output assembly walks it), the header fields load
// seeds from each packet (hdrKeys[j] lives in slot hdrSlots[j]; meta
// slots start absent every packet) and the batch execution segments
// derived from register hazard analysis (see batch.go).
type vmProg struct {
	p         *Pipeline
	fieldSlot map[string]int32
	slotKeys  []string
	hdrKeys   []string
	hdrSlots  []int32
	code      []vmInst
	segs      []vmSeg
	nreg      int // distinct register instances the program touches
	nstack    int // deepest operand stack any generic expression needs
	// mayAbort is set when some opBin divides by a runtime value: the
	// only way a lowered program can fail a packet.
	mayAbort bool
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
	alu    []uint64 // per-stage ALU accumulators + trailing dummy
	reads  uint64
	writes uint64
	stk    []uint64 // generic-core operand stack; empty between statements
	err    error    // set by an aborting opBin; taken by run1/runBatch
}

func newVMFrame(pr *vmProg, nstages int) vmFrame {
	return vmFrame{
		vals:  make([]uint64, len(pr.slotKeys)*vmLanes),
		stamp: make([]uint64, len(pr.slotKeys)*vmLanes),
		alu:   make([]uint64, nstages+1),
		stk:   make([]uint64, pr.nstack),
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
func (pl *vmProg) exec(fr *vmFrame, lane int, pc, end int32) int32 {
	code := pl.code
	for pc < end {
		in := &code[pc]
		fr.alu[in.ctr] += uint64(in.charge)
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
		default:
			pc = pl.execGeneric(fr, lane, pc, end)
			continue
		}
		pc++
	}
	return pc
}

// execGeneric runs one lane's generic-core instructions starting at pc,
// whose charge exec has already applied, until a superinstruction or
// end. Statements are lowered whole, so the operand stack is empty on
// entry and on every return. An aborting opBin records the error in the
// frame and returns past the end of the program, parking the lane.
func (pl *vmProg) execGeneric(fr *vmFrame, lane int, pc, end int32) int32 {
	code, stk, sp := pl.code, fr.stk, 0
	in := &code[pc]
	for {
		switch in.op {
		case opPush:
			stk[sp] = fr.ld(in.a, lane) & in.mask
			sp++
		case opPushImm:
			stk[sp] = in.imm
			sp++
		case opBin:
			sp--
			v, err := binOp(lang.Kind(in.b), stk[sp-1], stk[sp])
			if err != nil {
				fr.err = err
				return int32(len(code))
			}
			stk[sp-1] = v & in.mask
		case opCall:
			sp--
			x, y := stk[sp-1], stk[sp]
			switch in.b {
			case callHash:
				x = structures.Hash(x, y)
			case callMin:
				x = min(x, y)
			default:
				x = max(x, y)
			}
			stk[sp-1] = x
		case opShortCircuit:
			if (stk[sp-1] != 0) == (in.imm != 0) {
				stk[sp-1] = in.imm
				pc = in.target - 1
			} else {
				sp--
			}
		case opRegLoad:
			v := uint64(0)
			if in.store != nil {
				cell := stk[sp-1]
				if cell >= in.ncells {
					cell %= in.ncells
				}
				fr.reads++
				v = in.store[cell]
			}
			stk[sp-1] = v
		case opRegStore:
			sp -= 2
			if in.store != nil {
				cell := stk[sp+1]
				if cell >= in.ncells {
					cell %= in.ncells
				}
				in.store[cell] = stk[sp] & in.mask
				fr.writes++
			}
		case opStore:
			sp--
			fr.st(in.dst, lane, stk[sp]&in.dmask)
		case opBranchFalse:
			sp--
			if stk[sp] == 0 {
				pc = in.target - 1
			}
		case opJump:
			pc = in.target - 1
		}
		pc++
		if pc >= end {
			return pc
		}
		in = &code[pc]
		if in.op < opPush {
			return pc
		}
		fr.alu[in.ctr] += uint64(in.charge)
	}
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
// program touches. The lane keeps pkt for every other field.
func (pl *vmProg) load(fr *vmFrame, lane int, pkt Packet) {
	fr.pkt[lane] = pkt
	for j, k := range pl.hdrKeys {
		if v, ok := pkt[k]; ok {
			fr.st(pl.hdrSlots[j], lane, v)
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

// flushStats folds the frame-local accumulators into the pipeline's
// counters; the trailing dummy accumulator (out-of-range stages)
// mirrors the interpreter's bounds check and is discarded.
func (pl *vmProg) flushStats(fr *vmFrame) {
	stats := &pl.p.stats
	for i := range stats.ALUOps {
		stats.ALUOps[i] += fr.alu[i]
		fr.alu[i] = 0
	}
	fr.alu[len(stats.ALUOps)] = 0
	stats.RegReads += fr.reads
	stats.RegWrites += fr.writes
	fr.reads, fr.writes = 0, 0
}

// output materializes one lane as the map Process returns: live slots
// in interning order, then the packet's keys that no live slot
// shadows, matching the interpreter's header-then-meta merge order.
func (pl *vmProg) output(fr *vmFrame, lane int) map[string]uint64 {
	pkt := fr.pkt[lane]
	out := make(map[string]uint64, len(pl.slotKeys)+len(pkt))
	for s, key := range pl.slotKeys {
		i := s*vmLanes + lane
		if fr.stamp[i] == fr.gen {
			out[key] = fr.vals[i]
		}
	}
	for k, v := range pkt {
		if s, ok := pl.fieldSlot[k]; ok && fr.stamp[int(s)*vmLanes+lane] == fr.gen {
			continue
		}
		out[k] = v
	}
	return out
}
