// Batched struct-of-arrays execution for the bytecode VM.
//
// Replay runs packets in batches of up to vmLanes. Within a batch,
// instruction-major execution (one instruction across every lane before
// the next instruction) amortizes dispatch and turns each slot access
// into a contiguous sweep of the slot-major frame — but it is only
// bit-exact where no cross-packet state flows between lanes. The one
// source of cross-packet state is P4 register storage: a register that
// is both written and read during the program (the sketch/hash-table
// read-modify-write motif) makes lane l+1's reads depend on lane l's
// writes, in program order. So lowering-time hazard analysis splits the
// instruction stream into segments:
//
//   - vector segments touch no written register: they run
//     instruction-major, each instruction over the list of lanes whose
//     per-lane program counter (next[l]) is at it, so guard jumps stay
//     per-lane. Read-only registers (a seeded key-value store) are safe
//     here: their contents are constant for the whole batch and
//     read-count accounting is order-free.
//   - serial segments span every instruction touching a written
//     register (the union of per-register [first,last] access
//     intervals): they run lane-major, packet after packet, which is
//     exactly the sequential order the interpreter executes.
//
// Each lane still executes its instructions in increasing pc order, so
// per-lane behavior is the scalar behavior; cross-lane ordering only
// matters inside serial segments, where it is sequential. Stats
// accumulate per-stage in the frame and are order-free.
//
// An opStep (vm.go) runs lane-major only: it is a serial span, and
// every register instance its step touches counts as accessed there,
// written where the step assigns it. A program with an opStep that can
// abort (a divisor zero or known only at run time, an unknown name) is
// one whole-program serial segment — packets run to completion one
// after another, so a failure at packet i leaves registers and Stats
// exactly where the interpreter leaves them.

package sim

import (
	"sort"

	"p4all/internal/structures"
)

// vmSeg is one execution segment: [start, end) in the instruction
// stream, run lane-major when serial. A serial segment that is exactly
// the register increment-and-read-back pair (opRegBumpSlot followed by
// opRegLoadSlot of the same register cell — the sketch update motif,
// and in practice the only serial shape the module library produces)
// is additionally marked fused, and runBatch runs it through a
// dedicated loop that computes the cell index once and skips the
// per-instruction dispatch (execBumpLoad).
type vmSeg struct {
	start, end int32
	serial     bool
	fused      bool
}

// fusedBumpLoad reports whether the serial span [start, start+2) is the
// fusible pair: a register bump immediately read back through the same
// cell slot, charging the same stage counter. Same regID implies the
// same backing store; the same operand slot implies the same wrapped
// cell, since the bump writes no slot.
func fusedBumpLoad(pr *vmProg, start, end int32) bool {
	if end-start != 2 {
		return false
	}
	b, l := &pr.code[start], &pr.code[start+1]
	return b.op == opRegBumpSlot && l.op == opRegLoadSlot &&
		b.regID == l.regID && b.a == l.a && b.ctr == l.ctr
}

// regs calls f on each register instance in touches, with whether it
// may write it: a bump writes its instance, a load reads it, and an
// opStep touches every instance its step binds.
func (in *vmInst) regs(f func(id int32, write bool)) {
	if in.step != nil {
		for _, r := range in.step.regs {
			f(r.id, r.write)
		}
		return
	}
	if in.regID >= 0 {
		f(in.regID, in.op == opRegBumpSlot)
	}
}

// segmentize derives the batch segments from register hazard intervals.
func segmentize(pr *vmProg) []vmSeg {
	n := int32(len(pr.code))
	if n == 0 {
		return nil
	}
	if pr.mayAbort {
		return []vmSeg{{start: 0, end: n, serial: true}}
	}
	// Registers with at least one write anywhere in the program are
	// hazardous; every instruction touching one joins its interval.
	written := make(map[int32]bool)
	for i := range pr.code {
		pr.code[i].regs(func(id int32, write bool) {
			if write {
				written[id] = true
			}
		})
	}
	type span struct{ lo, hi int32 }
	spans := make(map[int32]*span)
	var merged []span
	for i := range pr.code {
		pc := int32(i)
		pr.code[i].regs(func(id int32, _ bool) {
			if !written[id] {
				return
			}
			if sp, ok := spans[id]; ok {
				sp.lo, sp.hi = min(sp.lo, pc), max(sp.hi, pc)
			} else {
				spans[id] = &span{lo: pc, hi: pc}
			}
		})
		if pr.code[i].op == opStep {
			merged = append(merged, span{lo: pc, hi: pc})
		}
	}
	for _, sp := range spans {
		merged = append(merged, *sp)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].lo < merged[j].lo })
	out := merged[:0]
	for _, sp := range merged {
		if len(out) > 0 && sp.lo <= out[len(out)-1].hi+1 {
			if sp.hi > out[len(out)-1].hi {
				out[len(out)-1].hi = sp.hi
			}
			continue
		}
		out = append(out, sp)
	}
	var segs []vmSeg
	pos := int32(0)
	for _, sp := range out {
		if sp.lo > pos {
			segs = append(segs, vmSeg{start: pos, end: sp.lo})
		}
		segs = append(segs, vmSeg{
			start: sp.lo, end: sp.hi + 1, serial: true,
			fused: fusedBumpLoad(pr, sp.lo, sp.hi+1),
		})
		pos = sp.hi + 1
	}
	if pos < n {
		segs = append(segs, vmSeg{start: pos, end: n})
	}
	return segs
}

// runBatch pushes up to vmLanes packets through the program. Register
// state and Stats advance exactly as if the packets had been processed
// one at a time; slot state and outputs are per-lane. When a packet
// aborts it returns that packet's lane and the error: lanes before it
// completed and are readable, lanes after it never ran.
func (pl *vmProg) runBatch(fr *vmFrame, pkts []Packet) (int, error) {
	lanes := len(pkts)
	fr.lanes = lanes
	fr.gen++
	pl.p.stats.Packets += uint64(lanes)
	for l, pkt := range pkts {
		pl.load(fr, l, pkt)
		fr.next[l] = 0
	}
	for _, sg := range pl.segs {
		switch {
		case sg.fused:
			pl.execBumpLoad(fr, sg)
		case sg.serial:
			for l := 0; l < lanes; l++ {
				if fr.next[l] < sg.end {
					fr.next[l] = pl.exec(fr, l, fr.next[l], sg.end)
				}
				if fr.err != nil { // only in a whole-program segment
					pl.p.stats.Packets -= uint64(lanes - l - 1)
					return l, pl.takeErr(fr)
				}
			}
		default:
			pl.execVec(fr, sg.start, sg.end)
		}
	}
	pl.flushStats(fr)
	return lanes, nil
}

// execBumpLoad runs a fused bump+load serial segment: per lane, in lane
// order (the serial contract), wrap the cell index once, increment the
// register cell, and read the new value back into the destination slot.
// Stats are hoisted out of the loop — every fused lane charges the same
// stage counter and counts two register reads and one write, exactly
// what exec would have accumulated per lane across the pair. Lanes not
// parked at the segment start (a guard jumped them into or past it)
// take the generic scalar path.
func (pl *vmProg) execBumpLoad(fr *vmFrame, sg vmSeg) {
	bump := &pl.code[sg.start]
	load := &pl.code[sg.start+1]
	lanes := fr.lanes
	gen := fr.gen
	store := bump.store
	dv := fr.vals[int(load.dst)*vmLanes:]
	ds := fr.stamp[int(load.dst)*vmLanes:]
	n := uint64(0)
	for l := 0; l < lanes; l++ {
		if fr.next[l] != sg.start {
			if fr.next[l] < sg.end {
				fr.next[l] = pl.exec(fr, l, fr.next[l], sg.end)
			}
			continue
		}
		fr.next[l] = sg.end
		n++
		cell := fr.ld(bump.a, l)
		if cell >= bump.ncells {
			cell %= bump.ncells
		}
		v := (store[cell] + bump.imm) & bump.mask
		store[cell] = v
		dv[l] = v & load.dmask
		ds[l] = gen
	}
	fr.alu[bump.ctr] += (bump.charge + load.charge) * n
	fr.reads += 2 * n
	fr.writes += n
}

// allLanes is every lane of a full batch in order: an uncond
// instruction's lane list is its prefix.
var allLanes = func() (t [vmLanes]uint8) {
	for l := range t {
		t[l] = uint8(l)
	}
	return t
}()

// execVec runs a vector segment instruction-major. Each instruction
// first forms the list of lanes that take it, then runs one loop over
// that list:
//
//   - an uncond instruction (inside no jump's skip interval — see
//     markUncond in lower.go) is taken by every lane, so its list is a
//     prefix of allLanes and next[] is neither read nor written;
//   - any other instruction is taken by the lanes whose program counter
//     next[l] equals pc (lanes whose guards jumped ahead skip until pc
//     catches up), and each of them moves on to pc+1.
//
// Reading next[] only for conditional instructions is sound because
// the first conditional instruction after a guard is always reached
// through that guard (conditional regions are exactly guarded step
// bodies, and guard jump targets are themselves uncond), and every
// guard stores each listed lane's next pc, re-establishing next[]
// before any conditional instruction reads it. Uncond non-guard
// instructions leave next[l] stale, which nothing reads until the
// segment-end fixup normalizes flowing lanes to end (lanes parked on a
// target T >= end keep T). The ALU charge is hoisted out of the loop:
// every listed lane charges the same stage counter.
func (pl *vmProg) execVec(fr *vmFrame, start, end int32) {
	lanes := fr.lanes
	gen := fr.gen
	var buf [vmLanes]uint8
	for pc := start; pc < end; pc++ {
		in := &pl.code[pc]
		ls := allLanes[:lanes]
		if !in.uncond {
			// Branch-free: guards leave the lanes mixed, so a branch on
			// next[l] here would mispredict.
			k := 0
			for l := 0; l < lanes; l++ {
				buf[k] = uint8(l)
				var take int32
				if fr.next[l] == pc {
					take = 1
				}
				fr.next[l] += take
				k += int(take)
			}
			ls = buf[:k]
		}
		n := uint64(len(ls))
		fr.alu[in.ctr] += in.charge * n
		// Fixed-size views, indexed by lanes masked to vmLanes-1 (a
		// no-op on a listed lane), let the compiler drop the bounds
		// checks in the lane loops.
		dv := (*[vmLanes]uint64)(fr.vals[int(in.dst)*vmLanes:])
		ds := (*[vmLanes]uint64)(fr.stamp[int(in.dst)*vmLanes:])
		switch in.op {
		case opConstSlot:
			for _, l := range ls {
				l &= vmLanes - 1
				dv[l] = in.imm
				ds[l] = gen
			}
		case opHashModSlot:
			for _, l := range ls {
				l &= vmLanes - 1
				v := structures.Hash(fr.ld(in.a, int(l))&in.mask, in.imm) % in.imm2
				dv[l] = v & in.dmask
				ds[l] = gen
			}
		case opMovSlot:
			for _, l := range ls {
				l &= vmLanes - 1
				dv[l] = fr.ld(in.a, int(l)) & in.dmask
				ds[l] = gen
			}
		case opAdd2Slot:
			for _, l := range ls {
				l &= vmLanes - 1
				dv[l] = (fr.ld(in.a, int(l)) + fr.ld(in.b, int(l))) & in.mask
				ds[l] = gen
			}
		case opAdd3Slot:
			for _, l := range ls {
				l &= vmLanes - 1
				v := (fr.ld(in.a, int(l)) + fr.ld(in.b, int(l))) & in.mask
				dv[l] = (v + fr.ld(in.c, int(l))) & in.mask2
				ds[l] = gen
			}
		case opRegLoadSlot:
			// Read-only register (hazard analysis serializes every
			// written one), so the store is constant across lanes.
			fr.reads += n
			for _, l := range ls {
				l &= vmLanes - 1
				cell := fr.ld(in.a, int(l))
				if cell >= in.ncells {
					cell %= in.ncells
				}
				dv[l] = in.store[cell] & in.dmask
				ds[l] = gen
			}
		case opGuardLT:
			for _, l := range ls {
				l &= vmLanes - 1
				if fr.ld(in.a, int(l)) < fr.ld(in.b, int(l)) {
					fr.next[l] = pc + 1
				} else {
					fr.next[l] = in.target
				}
			}
		case opGuardEQImm:
			for _, l := range ls {
				l &= vmLanes - 1
				if fr.ld(in.a, int(l)) == in.imm {
					fr.next[l] = pc + 1
				} else {
					fr.next[l] = in.target
				}
			}
		default:
			// segmentize puts every register write and every opStep in
			// a serial segment.
			panic("sim: " + in.op.String() + " in a vector segment")
		}
	}
	// Uncond non-guards never store next[l], so flowing lanes exit the
	// segment with a stale pc; normalize them to end. A lane parked on a
	// guard target keeps it: targets unreached within this segment are
	// >= end (anything smaller would have re-joined execution above).
	for l := 0; l < lanes; l++ {
		if fr.next[l] < end {
			fr.next[l] = end
		}
	}
}
