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
//     instruction-major, with a per-lane program counter (next[l]) so
//     guard jumps stay per-lane. Read-only registers (a seeded
//     key-value store) are safe here: their contents are constant for
//     the whole batch and read-count accounting is order-free.
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
// Generic-core instructions (vm.go) run lane-major only: every maximal
// run of them is a serial span, and a generic register store marks its
// register written like a bump does. A program that can abort (a
// runtime divisor) is one whole-program serial segment — packets run
// to completion one after another, so a failure at packet i leaves
// registers and Stats exactly where the interpreter leaves them.

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
		if op := pr.code[i].op; op == opRegBumpSlot || op == opRegStore {
			written[pr.code[i].regID] = true
		}
	}
	type span struct{ lo, hi int32 }
	spans := make(map[int32]*span)
	for i := range pr.code {
		id := pr.code[i].regID
		if id < 0 || !written[id] {
			continue
		}
		pc := int32(i)
		if sp, ok := spans[id]; ok {
			if pc < sp.lo {
				sp.lo = pc
			}
			if pc > sp.hi {
				sp.hi = pc
			}
		} else {
			spans[id] = &span{lo: pc, hi: pc}
		}
	}
	merged := make([]span, 0, len(spans))
	for _, sp := range spans {
		merged = append(merged, *sp)
	}
	for i := int32(0); i < n; i++ {
		if pr.code[i].op >= opPush {
			lo := i
			for i+1 < n && pr.code[i+1].op >= opPush {
				i++
			}
			merged = append(merged, span{lo: lo, hi: i})
		}
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
	fr.alu[bump.ctr] += (uint64(bump.charge) + uint64(load.charge)) * n
	fr.reads += 2 * n
	fr.writes += n
}

// execVec runs a vector segment instruction-major. A lane participates
// in instruction pc iff its program counter next[l] equals pc — lanes
// whose guards jumped ahead skip until pc catches up. Guards only jump
// forward, so every lane leaves the segment with next[l] >= end.
//
// Instructions marked uncond (inside no guard-skip interval — see
// markUncond in lower.go) take a dense path: every lane is known to
// participate, so the per-lane pc check/store disappears and the ALU
// charge is hoisted out of the lane loop. That is sound because the
// first conditional instruction after a guard is always reached through
// that guard (conditional regions are exactly guarded step bodies, and
// guard jump targets are themselves uncond), and guards — dense or not
// — store next[l] for every active lane, re-establishing the sparse
// invariant before any conditional instruction reads it. Dense
// non-guard instructions leave next[l] stale, which nothing reads until
// the segment-end fixup normalizes flowing lanes to end (lanes parked
// on a target T >= end keep T).
func (pl *vmProg) execVec(fr *vmFrame, start, end int32) {
	lanes := fr.lanes
	gen := fr.gen
	for pc := start; pc < end; pc++ {
		in := &pl.code[pc]
		chg := uint64(in.charge)
		ctr := &fr.alu[in.ctr]
		if in.uncond {
			*ctr += chg * uint64(lanes)
			dv := fr.vals[int(in.dst)*vmLanes:]
			ds := fr.stamp[int(in.dst)*vmLanes:]
			switch in.op {
			case opConstSlot:
				for l := 0; l < lanes; l++ {
					dv[l] = in.imm
					ds[l] = gen
				}
			case opHashModSlot:
				for l := 0; l < lanes; l++ {
					v := structures.Hash(fr.ld(in.a, l)&in.mask, in.imm) % in.imm2
					dv[l] = v & in.dmask
					ds[l] = gen
				}
			case opMovSlot:
				for l := 0; l < lanes; l++ {
					dv[l] = fr.ld(in.a, l) & in.dmask
					ds[l] = gen
				}
			case opAdd2Slot:
				for l := 0; l < lanes; l++ {
					dv[l] = (fr.ld(in.a, l) + fr.ld(in.b, l)) & in.mask
					ds[l] = gen
				}
			case opAdd3Slot:
				for l := 0; l < lanes; l++ {
					v := (fr.ld(in.a, l) + fr.ld(in.b, l)) & in.mask
					dv[l] = (v + fr.ld(in.c, l)) & in.mask2
					ds[l] = gen
				}
			case opRegLoadSlot:
				// Read-only register (hazard analysis serializes every
				// written one), so the store is constant across lanes.
				fr.reads += uint64(lanes)
				for l := 0; l < lanes; l++ {
					cell := fr.ld(in.a, l)
					if cell >= in.ncells {
						cell %= in.ncells
					}
					dv[l] = in.store[cell] & in.dmask
					ds[l] = gen
				}
			case opGuardLT:
				// Guards still record each lane's continuation pc: the
				// conditional body that follows reads it.
				for l := 0; l < lanes; l++ {
					if fr.ld(in.a, l) < fr.ld(in.b, l) {
						fr.next[l] = pc + 1
					} else {
						fr.next[l] = in.target
					}
				}
			case opGuardEQImm:
				for l := 0; l < lanes; l++ {
					if fr.ld(in.a, l) == in.imm {
						fr.next[l] = pc + 1
					} else {
						fr.next[l] = in.target
					}
				}
			}
			continue
		}
		switch in.op {
		case opConstSlot:
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				fr.vals[d+l] = in.imm
				fr.stamp[d+l] = gen
			}
		case opHashModSlot:
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				v := structures.Hash(fr.ld(in.a, l)&in.mask, in.imm) % in.imm2
				fr.vals[d+l] = v & in.dmask
				fr.stamp[d+l] = gen
			}
		case opMovSlot:
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				fr.vals[d+l] = fr.ld(in.a, l) & in.dmask
				fr.stamp[d+l] = gen
			}
		case opAdd2Slot:
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				fr.vals[d+l] = (fr.ld(in.a, l) + fr.ld(in.b, l)) & in.mask
				fr.stamp[d+l] = gen
			}
		case opAdd3Slot:
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				v := (fr.ld(in.a, l) + fr.ld(in.b, l)) & in.mask
				fr.vals[d+l] = (v + fr.ld(in.c, l)) & in.mask2
				fr.stamp[d+l] = gen
			}
		case opRegLoadSlot:
			// Reachable in vector mode only for read-only registers
			// (hazard analysis serializes every written one), so the
			// store is constant across lanes.
			d := int(in.dst) * vmLanes
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pc + 1
				*ctr += chg
				cell := fr.ld(in.a, l)
				if cell >= in.ncells {
					cell %= in.ncells
				}
				fr.reads++
				fr.vals[d+l] = in.store[cell] & in.dmask
				fr.stamp[d+l] = gen
			}
		case opGuardLT:
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				*ctr += chg
				if fr.ld(in.a, l) < fr.ld(in.b, l) {
					fr.next[l] = pc + 1
				} else {
					fr.next[l] = in.target
				}
			}
		case opGuardEQImm:
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				*ctr += chg
				if fr.ld(in.a, l) == in.imm {
					fr.next[l] = pc + 1
				} else {
					fr.next[l] = in.target
				}
			}
		default:
			// opRegBumpSlot writes a register, so segmentation always
			// places it in a serial segment; dispatch through the
			// scalar core defensively should it ever appear here.
			for l := 0; l < lanes; l++ {
				if fr.next[l] != pc {
					continue
				}
				fr.next[l] = pl.exec(fr, l, pc, pc+1)
			}
		}
	}
	// Dense instructions never store next[l], so flowing lanes exit the
	// segment with a stale pc; normalize them to end. A lane parked on a
	// guard target keeps it: targets unreached within this segment are
	// >= end (anything smaller would have re-joined execution above).
	for l := 0; l < lanes; l++ {
		if fr.next[l] < end {
			fr.next[l] = end
		}
	}
}
