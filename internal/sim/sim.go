// Package sim executes compiled P4All layouts on a behavioral PISA
// pipeline: packets carry header fields through the stages of a
// layout; placed action instances run in stage order against stage-
// local register state, exactly as the paper's §2 architecture
// describes. This replaces the Tofino hardware the paper ran on,
// letting tests and benchmarks observe what the generated programs
// actually compute.
package sim

import (
	"fmt"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/structures"
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
// packets processed, register accesses, and ALU operations per stage.
// These are the behavioral-model analogues of the switch resource
// counters the paper's §2 architecture budgets.
type Stats struct {
	Packets   uint64
	RegReads  uint64
	RegWrites uint64
	// ALUOps counts arithmetic, comparison, and hash operations
	// evaluated in each stage, indexed by stage number.
	ALUOps []uint64
}

// TotalALUOps sums the per-stage ALU operation counts.
func (s Stats) TotalALUOps() uint64 {
	var n uint64
	for _, v := range s.ALUOps {
		n += v
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
	steps []step
	// meta holds the per-packet metadata (reset per packet); keys are
	// flattened elastic names like "meta.count@2".
	meta map[string]uint64
	// hdr is the per-packet header view: a defensive copy of the
	// caller's Packet that header-field writes land in, so Process
	// never mutates its argument (reset per packet).
	hdr   map[string]uint64
	stats Stats
	// vm is the lowered bytecode program (nil when the interpreter runs
	// — requested explicitly, or because lowering fell back; vmErr
	// records why). vmf is its reusable struct-of-arrays batch frame.
	vm    *vmProg
	vmErr error
	vmf   vmFrame
}

type step struct {
	inv   *lang.Invocation
	iter  int
	stage int
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
		unit:   u,
		layout: layout,
		regs:   make(map[string][][]uint64),
		meta:   make(map[string]uint64),
		hdr:    make(map[string]uint64),
		stats:  Stats{ALUOps: make([]uint64, len(layout.Stages))},
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
	// Execution steps: the layout's schedule, less the placements
	// without a body (table match pseudo-actions).
	invByAction := map[string]*lang.Invocation{}
	for _, inv := range u.Invocations {
		if _, dup := invByAction[inv.Action.Name]; !dup {
			invByAction[inv.Action.Name] = inv
		}
	}
	for _, pl := range layout.Schedule(u) {
		inv, ok := invByAction[pl.Action]
		if !ok || inv.Action.Decl == nil || inv.Action.Decl.Body == nil {
			continue
		}
		p.steps = append(p.steps, step{inv: inv, iter: pl.Iter, stage: pl.Stage})
	}
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
	p.vmf = newVMFrame(vm, len(p.stats.ALUOps))
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
// per-stage ALUOps slice is copied so the snapshot stays stable, which
// makes this an end-of-run summary, not a per-packet probe.
func (p *Pipeline) Stats() Stats {
	s := p.stats
	s.ALUOps = append([]uint64(nil), p.stats.ALUOps...)
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
			p.hdr[f.Name] = f.Value
		}
	}
	for _, st := range p.steps {
		loopVar := ""
		if l := st.inv.Loop(); l != nil {
			loopVar = l.Var
		}
		ev := &evaluator{p: p, action: st.inv.Action, iter: st.iter, loopVar: loopVar, stage: st.stage}
		ok := true
		for _, g := range st.inv.Guards {
			v, err := ev.expr(g)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := ev.block(st.inv.Action.Decl.Body); err != nil {
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

// Meta reads a metadata field after Process ("struct.field" for
// scalars, instance selected by idx for elastic fields). Hot loops
// reading the same field repeatedly should precompute Key(field, idx)
// once and index the map (or a Replay View) directly.
func Meta(out map[string]uint64, field string, idx int) (uint64, bool) {
	v, ok := out[Key(field, idx)]
	return v, ok
}

// evaluator executes one action instance.
type evaluator struct {
	p       *Pipeline
	action  *lang.Action
	iter    int
	loopVar string // innermost loop variable (guards refer to it)
	stage   int    // pipeline stage this instance was placed in
}

// aluOp charges one ALU operation to the evaluator's stage.
func (ev *evaluator) aluOp() {
	if ops := ev.p.stats.ALUOps; ev.stage >= 0 && ev.stage < len(ops) {
		ops[ev.stage]++
	}
}

func (ev *evaluator) block(b *lang.Block) error {
	for _, s := range b.Stmts {
		if err := ev.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ev *evaluator) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return ev.block(s)
	case *lang.AssignStmt:
		v, err := ev.expr(s.RHS)
		if err != nil {
			return err
		}
		return ev.assign(s.LHS, v)
	case *lang.IfStmt:
		c, err := ev.expr(s.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return ev.block(s.Then)
		}
		if s.Else != nil {
			return ev.block(s.Else)
		}
		return nil
	default:
		return fmt.Errorf("sim: unsupported statement %T in action %s", s, ev.action.Name)
	}
}

// widthMask returns the truncation mask for a field width. Widths of
// 64 or more (and non-positive widths, defensively) leave the full
// 64-bit value intact.
func widthMask(bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(bits)) - 1
}

// maskTo wraps a value at the given bit width; width 0 means
// "unconstrained" (compile-time names and literals) and is a no-op.
func maskTo(v uint64, bits int) uint64 {
	return v & widthMask(bits)
}

// combineWidth merges the widths of two operands: an unconstrained
// operand (width 0) adopts the other's width; two constrained operands
// take the wider, matching P4's implicit widening of mixed-width
// arithmetic.
func combineWidth(a, b int) int {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a > b {
		return a
	}
	return b
}

func (ev *evaluator) assign(ref *lang.Ref, v uint64) error {
	base := ref.Base()
	if reg := ev.p.unit.RegisterByName(base); reg != nil {
		inst, cell, err := ev.regTarget(ref, reg)
		if err != nil {
			return err
		}
		store, ok := ev.p.Register(base, inst)
		if !ok {
			// Register instance not materialized in this layout: the
			// write is a no-op (the action would not have been placed
			// either; defensive for const-indexed accesses).
			return nil
		}
		if cell >= uint64(len(store)) {
			cell %= uint64(len(store))
		}
		store[cell] = v & widthMask(reg.Width)
		ev.p.stats.RegWrites++
		return nil
	}
	if si := ev.p.unit.StructByName(base); si != nil && len(ref.Segs) == 2 {
		f := si.Field(ref.Segs[1].Name)
		if f == nil {
			return fmt.Errorf("sim: unknown field %s", lang.PrintExpr(ref))
		}
		name, err := ev.metaKey(ref, f)
		if err != nil {
			return err
		}
		if si.IsHeader {
			ev.p.hdr[name] = v & widthMask(f.Width)
			return nil
		}
		ev.p.meta[name] = v & widthMask(f.Width)
		return nil
	}
	return fmt.Errorf("sim: cannot assign to %s", lang.PrintExpr(ref))
}

// regTarget resolves a register reference to (instance, cell).
func (ev *evaluator) regTarget(ref *lang.Ref, reg *lang.Register) (int, uint64, error) {
	seg := ref.Segs[0]
	if reg.Decl.Count != nil && len(seg.Indexes) == 2 {
		inst, err := ev.indexValue(seg.Indexes[0])
		if err != nil {
			return 0, 0, err
		}
		cell, err := ev.expr(seg.Indexes[1])
		if err != nil {
			return 0, 0, err
		}
		return int(inst), cell, nil
	}
	if len(seg.Indexes) == 1 {
		cell, err := ev.expr(seg.Indexes[0])
		if err != nil {
			return 0, 0, err
		}
		return 0, cell, nil
	}
	return 0, 0, fmt.Errorf("sim: malformed register access %s", lang.PrintExpr(ref))
}

// metaKey flattens a struct field reference to its storage key.
func (ev *evaluator) metaKey(ref *lang.Ref, f *lang.MetaField) (string, error) {
	fseg := ref.Segs[1]
	qual := f.Qual()
	elastic := f.Count.IsSymbolic() || f.Count.Const > 1
	if !elastic {
		return qual, nil
	}
	if len(fseg.Indexes) != 1 {
		return "", fmt.Errorf("sim: elastic field %s needs one index", qual)
	}
	idx, err := ev.indexValue(fseg.Indexes[0])
	if err != nil {
		return "", err
	}
	return instKey(qual, idx), nil
}

// indexValue evaluates a compile-time instance index (iteration
// parameter or constant).
func (ev *evaluator) indexValue(e lang.Expr) (uint64, error) {
	if ref, ok := e.(*lang.Ref); ok && ref.IsSimpleIdent() &&
		ev.action.Decl != nil && ref.Base() == ev.action.Decl.IndexParam {
		return uint64(ev.iter), nil
	}
	return ev.expr(e)
}

func (ev *evaluator) expr(e lang.Expr) (uint64, error) {
	v, _, err := ev.exprW(e)
	return v, err
}

// exprW evaluates an expression and reports the bit width its value
// wraps at: the declared width of the field or register the value was
// loaded from, 64 for hash results, and 0 (unconstrained) for literals
// and compile-time names. Arithmetic wraps at the combined operand
// width — the truncation the bit<W> declarations in the generated P4
// impose on hardware — so intermediate values in guards, comparisons,
// and indexes match what a switch would compute, not 64-bit Go values.
// Width masking was previously applied only at assignment, which let
// an unassigned intermediate like (a - b) underflow at 64 bits instead
// of the field width; the difftest golden models flushed that out.
func (ev *evaluator) exprW(e lang.Expr) (uint64, int, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return uint64(e.Value), 0, nil
	case *lang.BoolLit:
		if e.Value {
			return 1, 0, nil
		}
		return 0, 0, nil
	case *lang.Unary:
		v, w, err := ev.exprW(e.X)
		if err != nil {
			return 0, 0, err
		}
		ev.aluOp()
		switch e.Op {
		case lang.MINUS:
			return maskTo(-v, w), w, nil
		case lang.NOT:
			if v == 0 {
				return 1, 0, nil
			}
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("sim: unsupported unary %s", e.Op)
	case *lang.Binary:
		x, wx, err := ev.exprW(e.X)
		if err != nil {
			return 0, 0, err
		}
		// Short-circuit boolean operators.
		switch e.Op {
		case lang.AND:
			if x == 0 {
				return 0, 0, nil
			}
		case lang.OR:
			if x != 0 {
				return 1, 0, nil
			}
		}
		y, wy, err := ev.exprW(e.Y)
		if err != nil {
			return 0, 0, err
		}
		ev.aluOp()
		v, err := binOp(e.Op, x, y)
		if err != nil {
			return 0, 0, err
		}
		switch e.Op {
		case lang.PLUS, lang.MINUS, lang.STAR, lang.SLASH, lang.PCT:
			w := combineWidth(wx, wy)
			return maskTo(v, w), w, nil
		default:
			// Comparisons and boolean connectives yield 0/1.
			return v, 0, nil
		}
	case *lang.CallExpr:
		args := make([]uint64, len(e.Args))
		widths := make([]int, len(e.Args))
		for i, a := range e.Args {
			v, w, err := ev.exprW(a)
			if err != nil {
				return 0, 0, err
			}
			args[i] = v
			widths[i] = w
		}
		ev.aluOp()
		switch e.Name {
		case "hash":
			if len(args) != 2 {
				return 0, 0, fmt.Errorf("sim: hash expects 2 arguments")
			}
			return structures.Hash(args[0], args[1]), 64, nil
		case "min":
			if args[0] < args[1] {
				return args[0], combineWidth(widths[0], widths[1]), nil
			}
			return args[1], combineWidth(widths[0], widths[1]), nil
		case "max":
			if args[0] > args[1] {
				return args[0], combineWidth(widths[0], widths[1]), nil
			}
			return args[1], combineWidth(widths[0], widths[1]), nil
		}
		return 0, 0, fmt.Errorf("sim: unknown builtin %s", e.Name)
	case *lang.Ref:
		return ev.load(e)
	default:
		return 0, 0, fmt.Errorf("sim: unsupported expression %T", e)
	}
}

func binOp(op lang.Kind, x, y uint64) (uint64, error) {
	b := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	switch op {
	case lang.PLUS:
		return x + y, nil
	case lang.MINUS:
		return x - y, nil
	case lang.STAR:
		return x * y, nil
	case lang.SLASH:
		if y == 0 {
			return 0, fmt.Errorf("sim: division by zero")
		}
		return x / y, nil
	case lang.PCT:
		if y == 0 {
			return 0, fmt.Errorf("sim: modulo by zero")
		}
		return x % y, nil
	case lang.LT:
		return b(x < y), nil
	case lang.LE:
		return b(x <= y), nil
	case lang.GT:
		return b(x > y), nil
	case lang.GE:
		return b(x >= y), nil
	case lang.EQ:
		return b(x == y), nil
	case lang.NE:
		return b(x != y), nil
	case lang.AND:
		return b(x != 0 && y != 0), nil
	case lang.OR:
		return b(x != 0 || y != 0), nil
	default:
		return 0, fmt.Errorf("sim: unsupported operator %s", op)
	}
}

// load reads a reference and reports the declared bit width the value
// is constrained to (0 for compile-time names, which behave as
// unconstrained integers).
func (ev *evaluator) load(ref *lang.Ref) (uint64, int, error) {
	base := ref.Base()
	if ref.IsSimpleIdent() {
		if ev.action.Decl != nil && base == ev.action.Decl.IndexParam {
			return uint64(ev.iter), 0, nil
		}
		if ev.loopVar != "" && base == ev.loopVar {
			return uint64(ev.iter), 0, nil
		}
		if sym := ev.p.unit.SymbolicByName(base); sym != nil {
			return uint64(ev.p.layout.Symbolics[sym.Name]), 0, nil
		}
		if v, ok := ev.p.unit.Consts[base]; ok {
			return uint64(v), 0, nil
		}
		return 0, 0, fmt.Errorf("sim: unknown name %s", base)
	}
	if reg := ev.p.unit.RegisterByName(base); reg != nil {
		inst, cell, err := ev.regTarget(ref, reg)
		if err != nil {
			return 0, 0, err
		}
		store, ok := ev.p.Register(base, inst)
		if !ok {
			return 0, reg.Width, nil
		}
		if cell >= uint64(len(store)) {
			cell %= uint64(len(store))
		}
		ev.p.stats.RegReads++
		return store[cell], reg.Width, nil
	}
	if si := ev.p.unit.StructByName(base); si != nil && len(ref.Segs) == 2 {
		f := si.Field(ref.Segs[1].Name)
		if f == nil {
			return 0, 0, fmt.Errorf("sim: unknown field %s", lang.PrintExpr(ref))
		}
		name, err := ev.metaKey(ref, f)
		if err != nil {
			return 0, 0, err
		}
		if si.IsHeader {
			return ev.p.hdr[name] & widthMask(f.Width), f.Width, nil
		}
		return ev.p.meta[name], f.Width, nil
	}
	return 0, 0, fmt.Errorf("sim: cannot read %s", lang.PrintExpr(ref))
}
