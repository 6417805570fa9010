// Package sim executes compiled P4All layouts on a behavioral PISA
// pipeline: packets carry header fields through the stages of a
// layout; placed action instances run in stage order against stage-
// local register state, exactly as the paper's §2 architecture
// describes. This replaces the Tofino hardware the paper ran on,
// letting tests and benchmarks observe what the generated programs
// actually compute.
package sim

import (
	"errors"
	"fmt"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
)

// Packet carries a packet's header fields as (name, value) pairs, e.g.
// {"query.key", 17}: the few declared fields of the PISA header vector,
// held without a hash table. A name is expected once; where a packet
// repeats one, its first occurrence is the field's value and every
// later one is ignored, by both engines and by Get.
type Packet []Field

// Field is one named header-field value of a Packet.
type Field struct {
	Name  string
	Value uint64
}

// Get returns the value of the packet's first field called name, and
// false when the packet carries no such field.
func (pkt Packet) Get(name string) (uint64, bool) {
	for _, f := range pkt {
		if f.Name == name {
			return f.Value, true
		}
	}
	return 0, false
}

// Stats counts the work a pipeline has performed since construction:
// packets processed, register cell reads and writes, and, per stage,
// the units the layout budgets there.
type Stats struct {
	Packets   uint64
	RegReads  uint64
	RegWrites uint64
	// ALUs is indexed by stage number. It sums what the stage's
	// executed blocks charged under sem's cost table: stateful ALUs
	// (RegisterAccesses), stateless ALUs (StatelessOps) and hash units
	// (Hashes). One packet's charge to a stage is at most what the
	// layout budgets there (difftest's engine oracle checks it); the
	// pipeline counts it and does not stop a packet over it.
	ALUs []pisa.ActionProfile
}

// TotalALUOps sums the charged units, of all three kinds, over the
// stages.
func (s Stats) TotalALUOps() uint64 {
	var n uint64
	for _, v := range s.ALUs {
		n += uint64(v.RegisterAccesses + v.StatelessOps + v.Hashes)
	}
	return n
}

// Pipeline is an executable compiled program.
//
// Ownership: a Pipeline is owned by a single goroutine. Process, Stats,
// Register and Snapshot must all be called from that owner.
// A swap keeps this invariant: its replacement is built and
// state-migrated off to the side, and is published only while the
// owner is idle (the serving runtime's quiesce window, internal/serve). To use more
// than one core, run more than one owner: the sharded serving runtime
// (internal/serve) gives each shard goroutine its own Pipeline and
// reconciles per-shard state at read time.
type Pipeline struct {
	unit   *lang.Unit
	layout *ilpgen.Layout
	// regs[name][instance] is the register storage, sized per layout.
	regs map[string][][]uint64
	// steps are the placed invocation instances in execution order.
	steps []sem.Step
	// meta holds the per-packet metadata (reset per packet); keys are
	// flattened elastic names like "meta.count@2".
	meta map[string]uint64
	// hdr is the per-packet header view: a defensive copy of the
	// caller's Packet that header-field writes land in, so Process
	// never mutates its argument (reset per packet).
	hdr map[string]uint64
	// hdrMask is each declared header field's width mask: a packet's
	// value enters the pipeline cut to the field's declared width.
	hdrMask map[string]uint64
	stats   Stats
	// vm is the lowered bytecode program (nil when the interpreter runs
	// — requested explicitly, or because lowering fell back; vmErr
	// records why). vmf is its reusable struct-of-arrays batch frame.
	vm    *vmProg
	vmErr error
	vmf   vmFrame
}

// New builds a pipeline for a resolved unit and its solved layout,
// executed by the default engine, the bytecode VM (see NewEngine).
func New(u *lang.Unit, layout *ilpgen.Layout) (*Pipeline, error) {
	return NewEngine(u, layout, EngineVM)
}

// NewEngine builds a pipeline executed by the given engine. EngineVM
// lowers the program to a flat bytecode program with batched replay,
// falling back to the interpreter for the few programs it cannot lower
// (see Pipeline.Fallback); EngineInterp forces the reference
// interpreter. difftest's engine oracle holds the two to bit-identical
// observable behavior.
func NewEngine(u *lang.Unit, layout *ilpgen.Layout, eng Engine) (*Pipeline, error) {
	p := &Pipeline{
		unit:    u,
		layout:  layout,
		regs:    make(map[string][][]uint64),
		meta:    make(map[string]uint64),
		hdr:     make(map[string]uint64),
		hdrMask: make(map[string]uint64),
		stats:   Stats{ALUs: make([]pisa.ActionProfile, len(layout.Stages))},
	}
	for _, si := range u.Structs {
		if !si.IsHeader {
			continue
		}
		for _, f := range si.Fields {
			if !f.Elastic() {
				p.hdrMask[f.Qual()] = sem.WidthMask(f.Width)
				continue
			}
			for i := range f.Count.Const { // a header's extent is never symbolic
				p.hdrMask[sem.InstKey(f.Qual(), uint64(i))] = sem.WidthMask(f.Width)
			}
		}
	}
	// Allocate register storage from the layout.
	counts := map[string]int{}
	for _, rp := range layout.Registers {
		if rp.Index+1 > counts[rp.Register] {
			counts[rp.Register] = rp.Index + 1
		}
	}
	for name, n := range counts {
		p.regs[name] = make([][]uint64, n)
	}
	for _, rp := range layout.Registers {
		p.regs[rp.Register][rp.Index] = make([]uint64, rp.Cells)
	}
	_, p.steps = layout.Steps(u)
	if eng == EngineVM {
		if vm, err := lowerVM(p); err != nil {
			p.vmErr = err
		} else {
			p.installVM(vm)
		}
	}
	return p, nil
}

func (p *Pipeline) installVM(vm *vmProg) {
	p.vm = vm
	p.vmf = newVMFrame(vm, len(p.stats.ALUs))
}

// Snapshot is a deep copy of a pipeline's register state, detached
// from the live pipeline. The differential tests compare end-of-stream
// register state through it (difftest's layout, engine and tenant
// oracles); state migration across layouts works on the serving data
// planes instead (elastic.MigrateShards).
type Snapshot struct {
	// Regs[name][instance] holds the cells of each register instance;
	// a nil instance was not materialized in the layout.
	Regs map[string][][]uint64
}

// Snapshot deep-copies the pipeline's register state.
func (p *Pipeline) Snapshot() *Snapshot {
	s := &Snapshot{Regs: make(map[string][][]uint64, len(p.regs))}
	for name, insts := range p.regs {
		cp := make([][]uint64, len(insts))
		for i, cells := range insts {
			if cells != nil {
				cp[i] = append([]uint64(nil), cells...)
			}
		}
		s.Regs[name] = cp
	}
	return s
}

// Stats returns a snapshot of the pipeline's work counters. The
// per-stage ALUs slice is copied so the snapshot stays stable.
func (p *Pipeline) Stats() Stats {
	s := p.stats
	s.ALUs = append([]pisa.ActionProfile(nil), p.stats.ALUs...)
	return s
}

// Register returns the live contents of a register instance (for tests
// and tools). The slice aliases pipeline state.
func (p *Pipeline) Register(name string, instance int) ([]uint64, bool) {
	insts, ok := p.regs[name]
	if !ok || instance < 0 || instance >= len(insts) {
		return nil, false
	}
	return insts[instance], insts[instance] != nil
}

// Process pushes one packet through the pipeline and returns the final
// packet view: metadata fields (flattened names: "meta.min",
// "meta.count@2", ...) plus the header fields as the pipeline left
// them. The caller's Packet is read and never written — header-field
// writes are visible only in the returned map, so the same Packet value
// can be replayed any number of times.
func (p *Pipeline) Process(pkt Packet) (map[string]uint64, error) {
	if p.vm != nil {
		defer clear(p.vmf.pkt[:])
		if err := p.vm.run1(&p.vmf, pkt); err != nil {
			return nil, err
		}
		return p.vm.output(&p.vmf, 0), nil
	}
	p.stats.Packets++
	for k := range p.meta {
		delete(p.meta, k)
	}
	for k := range p.hdr {
		delete(p.hdr, k)
	}
	for _, f := range pkt {
		if _, dup := p.hdr[f.Name]; !dup {
			p.hdr[f.Name] = f.Value & p.inputMask(f.Name)
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		if err := sem.Exec[uint64](interp{p: p, stage: st.Stage}, p.unit, p.layout.Symbolics, st); err != nil {
			return nil, err
		}
	}
	out := make(map[string]uint64, len(p.hdr)+len(p.meta))
	for k, v := range p.hdr {
		out[k] = v
	}
	for k, v := range p.meta {
		out[k] = v
	}
	return out, nil
}

// inputMask is the mask a packet's field enters the pipeline under: its
// declared width for a header field, every bit for any other name.
func (p *Pipeline) inputMask(name string) uint64 {
	if m, ok := p.hdrMask[name]; ok {
		return m
	}
	return ^uint64(0)
}

// Meta reads a metadata field after Process ("struct.field" for
// scalars, instance selected by idx for elastic fields). Hot loops
// reading the same field repeatedly should precompute Key(field, idx)
// once and index the map (or a Replay View) directly.
func Meta(out map[string]uint64, field string, idx int) (uint64, bool) {
	v, ok := out[Key(field, idx)]
	return v, ok
}

// leaves are the uint64 leaves of sem's walker that both engines'
// domains share: constants, branch decisions, operators, builtins,
// instance indexes and aborts evaluate one way on the interpreter and
// in the VM's opStep.
type leaves struct{}

func (leaves) Const(v uint64) uint64 { return v }

func (leaves) Decide(v uint64) (bool, error) { return v != 0, nil }

func (leaves) Unary(op lang.Kind, x uint64, w int) uint64 {
	if op == lang.NOT {
		if x == 0 {
			return 1
		}
		return 0
	}
	return sem.MaskTo(-x, w)
}

func (leaves) Binary(op lang.Kind, x, y uint64, w int) (uint64, error) {
	v, err := sem.BinOp(op, x, y)
	if err != nil {
		return 0, fmt.Errorf("sim: %w", err)
	}
	return sem.MaskTo(v, w), nil
}

func (leaves) Builtin(name string, x, y uint64) uint64 { return sem.Call(name, x, y) }

func (leaves) Abort(reason string) error { return errors.New("sim: " + reason) }

// interp is the reference interpreter's domain for the shared walker
// (internal/sem): uint64 values over the pipeline's header, metadata
// and register maps, charges added to the stage the step runs in.
type interp struct {
	leaves
	p     *Pipeline
	stage int
}

func (d interp) Charge(c pisa.ActionProfile) {
	if alus := d.p.stats.ALUs; d.stage >= 0 && d.stage < len(alus) {
		alus[d.stage] = alus[d.stage].Add(c)
	}
}

// RegRead wraps the cell at the instance's extent and counts one
// RegRead; an instance the layout did not materialize reads as zero,
// uncounted.
func (d interp) RegRead(name string, inst int64, cell uint64, width int) uint64 {
	store, ok := d.p.Register(name, int(inst))
	if !ok {
		return 0
	}
	d.p.stats.RegReads++
	return store[cell%uint64(len(store))]
}

// RegWrite stores the value masked to the register's width and counts
// one RegWrite; a write to an instance the layout did not materialize
// is a no-op (the action would not have been placed either).
func (d interp) RegWrite(name string, inst int64, cell, v uint64, width int) {
	store, ok := d.p.Register(name, int(inst))
	if !ok {
		return
	}
	store[cell%uint64(len(store))] = sem.MaskTo(v, width)
	d.p.stats.RegWrites++
}

// FieldRead reads a header field masked to its width, a metadata field
// as written; absent fields are zero.
func (d interp) FieldRead(f sem.Field) uint64 {
	if f.Header {
		return sem.MaskTo(d.p.hdr[f.Key()], f.Width)
	}
	return d.p.meta[f.Key()]
}

func (d interp) FieldWrite(f sem.Field, v uint64) {
	if f.Header {
		d.p.hdr[f.Key()] = sem.MaskTo(v, f.Width)
		return
	}
	d.p.meta[f.Key()] = sem.MaskTo(v, f.Width)
}
