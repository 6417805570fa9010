package sim

import (
	"strings"
	"sync"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/structures"
	"p4all/internal/workload"
)

// vmProgram is one compiled corpus entry; each test builds fresh
// pipelines from the cached unit/layout.
type vmProgram struct {
	name   string
	res    *core.Result
	fields []string // packet fields, key first
}

// logicTour and stateTour reach the generic-core opcodes no shipped
// program needs: not, &&, ||, max, hash outside the index motif, if/else
// inside an action body, a header store, a runtime divisor that never
// hits zero on the test streams (so the whole-program serial segment
// runs clean), constant instance and field indexes that charge ALU ops,
// register cells indexed by an expression, and a register instance the
// layout never materializes.
const logicTour = `
header hdr { bit<32> a; bit<32> b; bit<8> c; }
struct meta { bit<32> x; bit<32> y; bit<32> z; }
action logic() {
    meta.z = max(hdr.a, hash(hdr.b, 3));
    if (!(hdr.a < hdr.b) && hdr.c != 0 || hdr.a == 7) {
        meta.x = hdr.a / (hdr.b + 1);
        hdr.b = -meta.x;
    } else {
        meta.y = hdr.a % 5;
    }
}
control main { apply { logic(); } }
`

const stateTour = `
header hdr { bit<32> a; bit<32> b; }
symbolic int n;
struct meta { bit<32>[n] e; bit<32> t; bit<32> u; }
register<bit<32>>[64][n] r;
register<bit<16>>[32][n] s;
action f()[int i] {
    meta.e[i] = r[i][hdr.a + i] + meta.e[1 - 1];
    r[i][hdr.a + i] = meta.e[i] + hdr.b;
}
action g() {
    meta.t = s[1 - 1][hdr.b];
    s[1 - 1][hdr.b] = meta.t + hdr.a;
    meta.u = s[7][hdr.a];
    s[7][hdr.a] = 1;
}
control main { apply { for (i < n) { f()[i]; } g(); } }
assume n >= 1 && n <= 2;
optimize n;
`

var (
	vmCorpusOnce  sync.Once
	vmCorpusProgs []vmProgram
	vmCorpusErr   error
)

// vmCorpus compiles, once per test binary, every program the engine
// oracle covers: the 12 the repo ships — the four suite apps, HashPipe,
// FlowRadar and the six standalone modules, at the evaluation target —
// then the inline sources of width_test.go and alias_test.go and the
// two tours above.
func vmCorpus(t *testing.T) []vmProgram {
	t.Helper()
	vmCorpusOnce.Do(func() {
		add := func(name, src string, tgt pisa.Target, fields ...string) {
			if vmCorpusErr != nil {
				return
			}
			res, err := core.Compile(src, tgt, core.Options{
				Solver:      ilp.Options{Deterministic: true, Gap: 0.1},
				SkipCodegen: true,
			})
			if err != nil {
				vmCorpusErr = err
				return
			}
			vmCorpusProgs = append(vmCorpusProgs, vmProgram{name: name, res: res, fields: fields})
		}
		eval := pisa.EvalTarget(pisa.Mb)
		suiteFields := map[string][]string{
			"NetCache":    {"query.key", "query.op", "ipv4.dst"},
			"SketchLearn": {"pkt.flow", "pkt.len"},
			"Precision":   {"pkt.flow", "pkt.len"},
			"ConQuest":    {"pkt.flow", "pkt.qdepth"},
		}
		for _, app := range apps.All() {
			add(app.Name, app.Source, eval, suiteFields[app.Name]...)
		}
		add("HashPipe", apps.HashPipe().Source, eval, "pkt.flow", "pkt.len")
		add("FlowRadar", apps.FlowRadar().Source, eval, "pkt.flow", "pkt.len")
		for _, m := range []struct {
			name string
			src  string
		}{
			{"StandaloneCMS", modules.StandaloneCMS()},
			{"StandaloneBloom", modules.StandaloneBloom()},
			{"StandaloneKVS", modules.StandaloneKVS()},
			{"StandaloneHashTable", modules.StandaloneHashTable()},
			{"StandaloneCountingTable", modules.StandaloneCountingTable()},
			{"StandaloneIDTable", modules.StandaloneIDTable()},
		} {
			add(m.name, m.src, eval, "pkt.flow", "pkt.payload")
		}
		for _, c := range widthCases {
			add("width: "+c.name, c.src, pisa.RunningExampleTarget(), "pkt.a", "pkt.b")
		}
		add("alias: header write", headerWritingProgram, pisa.RunningExampleTarget(), "pkt.flow", "pkt.tag")
		add("tour: logic", logicTour, simTestTarget(), "hdr.a", "hdr.b", "hdr.c")
		add("tour: state", stateTour, simTestTarget(), "hdr.a", "hdr.b")
	})
	if vmCorpusErr != nil {
		t.Fatalf("compile corpus: %v", vmCorpusErr)
	}
	return vmCorpusProgs
}

// vmSuite is the four benchmark apps.
func vmSuite(t *testing.T) []vmProgram { return vmCorpus(t)[:4] }

func simTestTarget() pisa.Target {
	return pisa.Target{
		Name: "sim-test", Stages: 6, MemoryBits: 1 << 15,
		StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096,
	}
}

// vmStream builds a deterministic packet stream: zipf-distributed keys
// (so take-min guards go both ways), hash-derived secondary fields, and
// one field no program declares (read from the caller's packet).
func vmStream(app vmProgram, seed int64, n int) []Packet {
	keys := workload.ZipfKeys(seed, 200, 1.05, n)
	pkts := make([]Packet, n)
	for i, k := range keys {
		p := Packet{app.fields[0]: k, "stray.key": k ^ 0xABCD}
		for j, f := range app.fields[1:] {
			p[f] = structures.Hash(uint64(i), uint64(j)) & 0xFFFF
		}
		pkts[i] = p
	}
	return pkts
}

// seedVMRegisters fills every materialized register instance with
// deterministic nonzero state (both pipelines identically), so
// read-only register loads — the key-value store, the hash-table key
// array — return real data instead of zeros.
func seedVMRegisters(p *Pipeline) {
	for _, insts := range p.regs {
		for i, cells := range insts {
			for c := range cells {
				cells[c] = structures.Hash(uint64(c), uint64(i)) & 0xFFFF
			}
		}
	}
}

// newPair builds the program on the default engine — which must be the
// VM, with nothing fallen back — and on the reference interpreter.
func newPair(t *testing.T, res *core.Result) (vm, interp *Pipeline) {
	t.Helper()
	vm, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if vm.EngineName() != "vm" || vm.Fallback() != nil {
		t.Fatalf("engine %s, VM lowering fell back: %v", vm.EngineName(), vm.Fallback())
	}
	interp, err = NewEngine(res.Unit, res.Layout, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if interp.EngineName() != "interp" {
		t.Fatal("EngineInterp built a VM")
	}
	return vm, interp
}

// newVMPair is newPair with identical nonzero register preconditions.
func newVMPair(t *testing.T, app vmProgram) (vm, interp *Pipeline) {
	t.Helper()
	vm, interp = newPair(t, app.res)
	seedVMRegisters(vm)
	seedVMRegisters(interp)
	return vm, interp
}

// assertSameOutputs compares two output maps exactly (both directions).
func assertSameOutputs(t *testing.T, i int, got, want map[string]uint64) {
	t.Helper()
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("packet %d field %s: vm %d (present=%v), interp %d", i, k, gv, ok, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("packet %d: vm emitted extra field %s = %d", i, k, got[k])
		}
	}
}

// assertSameCounters demands every Stats counter and the full register
// state agree.
func assertSameCounters(t *testing.T, a, b *Pipeline) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Packets != sb.Packets || sa.RegReads != sb.RegReads || sa.RegWrites != sb.RegWrites {
		t.Fatalf("counter mismatch: %+v vs %+v", sa, sb)
	}
	for i := range sa.ALUOps {
		if sa.ALUOps[i] != sb.ALUOps[i] {
			t.Fatalf("stage %d ALU ops: %d vs %d", i, sa.ALUOps[i], sb.ALUOps[i])
		}
	}
	assertSameSnapshots(t, a, b)
}

func assertSameSnapshots(t *testing.T, a, b *Pipeline) {
	t.Helper()
	snapA, snapB := a.Snapshot(), b.Snapshot()
	for name, insts := range snapA.Regs {
		for i := range insts {
			for c := range insts[i] {
				if insts[i][c] != snapB.Regs[name][i][c] {
					t.Fatalf("register %s/%d cell %d: %d vs %d",
						name, i, c, insts[i][c], snapB.Regs[name][i][c])
				}
			}
		}
	}
}

// TestVMMatchesInterpreterOnApps is the scalar half of the acceptance
// bar: every corpus program lowers to the VM with no fallback, and
// Process through it is bit-identical to the reference interpreter —
// outputs, Stats, and register state.
func TestVMMatchesInterpreterOnApps(t *testing.T) {
	for _, app := range vmCorpus(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, interp := newVMPair(t, app)
			pkts := vmStream(app, 3, 1500)
			for i, pkt := range pkts {
				a, err := vm.Process(pkt)
				if err != nil {
					t.Fatalf("vm packet %d: %v", i, err)
				}
				b, err := interp.Process(pkt)
				if err != nil {
					t.Fatalf("interp packet %d: %v", i, err)
				}
				assertSameOutputs(t, i, a, b)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}

// TestVMBatchMatchesProcess drives the struct-of-arrays batch path
// (Replay) against a fresh interpreter processing the same stream one
// packet at a time. Batch boundaries fall mid-stream (n is not a
// multiple of vmLanes), so partial tail batches are covered too.
func TestVMBatchMatchesProcess(t *testing.T) {
	for _, app := range vmCorpus(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, interp := newVMPair(t, app)
			pkts := vmStream(app, 7, 5*vmLanes+17)
			err := vm.Replay(pkts, func(i int, v View) error {
				want, err := interp.Process(pkts[i])
				if err != nil {
					return err
				}
				assertSameOutputs(t, i, v.Map(), want)
				for _, name := range []string{app.fields[0], "stray.key"} {
					got, ok := v.Get(name)
					if !ok || got != want[name] {
						t.Fatalf("packet %d: View.Get(%s) = %d,%v want %d", i, name, got, ok, want[name])
					}
				}
				if _, ok := v.Get("no.such.field"); ok {
					t.Fatalf("packet %d: view invented a field", i)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}

// TestVMGenericCoreIsTotal lowers the four suite apps with the motif
// matchers bypassed: the generic core alone must reproduce the
// interpreter bit-for-bit, through both Process and batched Replay, so
// the superinstructions are an optimization and never a semantic.
func TestVMGenericCoreIsTotal(t *testing.T) {
	for _, app := range vmSuite(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, interp := newVMPair(t, app)
			prog, err := (&vmLowerer{p: vm, genericOnly: true}).lower()
			if err != nil {
				t.Fatalf("generic-only lowering rejected %s: %v", app.name, err)
			}
			for _, in := range prog.code {
				if in.op < opPush {
					t.Fatalf("generic-only stream contains superinstruction %s", in.op)
				}
			}
			vm.installVM(prog)
			pkts := vmStream(app, 5, 3*vmLanes+9)
			half := len(pkts) / 2
			want := make([]map[string]uint64, len(pkts))
			for i, pkt := range pkts {
				if want[i], err = interp.Process(pkt); err != nil {
					t.Fatal(err)
				}
			}
			for i, pkt := range pkts[:half] {
				got, err := vm.Process(pkt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutputs(t, i, got, want[i])
			}
			if err := vm.Replay(pkts[half:], func(i int, v View) error {
				assertSameOutputs(t, half+i, v.Map(), want[half+i])
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			assertSameCounters(t, vm, interp)
		})
	}
}

// TestVMSnapshotRestore checks Snapshot/Restore round-trips through a
// VM pipeline mid-replay — the elastic controller's swap protocol path.
func TestVMSnapshotRestore(t *testing.T) {
	app := vmSuite(t)[0]
	vm, interp := newVMPair(t, app)
	pkts := vmStream(app, 11, 3*vmLanes)
	if err := vm.Replay(pkts[:vmLanes], nil); err != nil {
		t.Fatal(err)
	}
	if err := interp.Replay(pkts[:vmLanes], nil); err != nil {
		t.Fatal(err)
	}
	snap := vm.Snapshot()
	if err := vm.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// After restore, the VM pipeline must agree with the interpreter
	// that only saw the first batch.
	assertSameSnapshots(t, vm, interp)
	// And processing resumes correctly on the restored state.
	if err := vm.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	if err := interp.Replay(pkts[vmLanes:], nil); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshots(t, vm, interp)
}

// TestVMReplayZeroAllocs is the acceptance criterion's steady-state
// check on the batched VM loop, per app.
func TestVMReplayZeroAllocs(t *testing.T) {
	for _, app := range vmCorpus(t) {
		t.Run(app.name, func(t *testing.T) {
			vm, _ := newVMPair(t, app)
			pkts := vmStream(app, 2, 4*vmLanes)
			keyField := app.fields[0]
			var sum uint64
			sink := func(i int, v View) error {
				val, _ := v.Get(keyField)
				sum += val
				return nil
			}
			// Warm up so lazily-grown extra-key slices settle.
			if err := vm.Replay(pkts, sink); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := vm.Replay(pkts, sink); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("VM replay allocated %.1f objects per run, want 0", allocs)
			}
			_ = sum
		})
	}
}

// TestVMOpcodeCoverage asserts every opcode the lowering can emit is
// reached by a checked-in program — an unreached opcode is a dead
// lowering path — and that the four suite apps still lower to the nine
// superinstructions only, so batch.go's measured paths run them whole.
func TestVMOpcodeCoverage(t *testing.T) {
	emittedBy := make(map[vmOp][]string)
	for i, app := range vmCorpus(t) {
		vm, _ := newVMPair(t, app)
		seen := make(map[vmOp]bool)
		for _, in := range vm.vm.code {
			if i < 4 && in.op >= opPush {
				t.Errorf("suite app %s lowers to generic opcode %s", app.name, in.op)
			}
			if !seen[in.op] {
				seen[in.op] = true
				emittedBy[in.op] = append(emittedBy[in.op], app.name)
			}
		}
	}
	for op := vmOp(0); op < vmOpCount; op++ {
		if len(emittedBy[op]) == 0 {
			t.Errorf("opcode %s is emitted by no corpus program — dead lowering path", op)
		} else {
			t.Logf("opcode %-12s exercised by %v", op, emittedBy[op])
		}
	}
}

// TestVMBatchSegments sanity-checks the hazard analysis over the
// corpus: segments must partition the instruction stream, every
// register write and every generic instruction must land in a serial
// segment, and a program that can abort must be one serial segment.
func TestVMBatchSegments(t *testing.T) {
	for _, app := range vmCorpus(t) {
		vm, _ := newVMPair(t, app)
		prog := vm.vm
		pos := int32(0)
		serialAt := make(map[int32]bool)
		for _, sg := range prog.segs {
			if sg.start != pos || sg.end <= sg.start {
				t.Fatalf("%s: segment [%d,%d) does not continue at %d", app.name, sg.start, sg.end, pos)
			}
			for pc := sg.start; pc < sg.end; pc++ {
				serialAt[pc] = sg.serial
			}
			pos = sg.end
		}
		if pos != int32(len(prog.code)) {
			t.Fatalf("%s: segments end at %d, code has %d instructions", app.name, pos, len(prog.code))
		}
		for pc, in := range prog.code {
			if (in.op == opRegBumpSlot || in.op >= opPush) && !serialAt[int32(pc)] {
				t.Fatalf("%s: %s at pc %d is in a vector segment", app.name, in.op, pc)
			}
		}
		if prog.mayAbort && (len(prog.segs) != 1 || !prog.segs[0].serial) {
			t.Fatalf("%s: abortable program has segments %+v", app.name, prog.segs)
		}
	}
}

// divSource divides by a header field, so a packet can abort.
const divSource = `
header hdr { bit<32> a; bit<32> b; }
struct meta { bit<32> q; }
register<bit<32>>[16] seen;
action div() {
    seen[hdr.a] = seen[hdr.a] + 1;
    meta.q = hdr.a / hdr.b;
}
control main { apply { div(); } }
`

func compileBoth(t *testing.T, src string, tgt pisa.Target) (vm, interp *Pipeline) {
	t.Helper()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return newPair(t, res)
}

// TestVMDivisionByZeroParity: a runtime zero divisor must surface the
// interpreter's exact error from the VM, and leave registers and every
// Stats counter exactly as the interpreter leaves them — through
// Process, and through Replay, where the error carries the packet index
// and the sinks of exactly the packets before it have fired.
func TestVMDivisionByZeroParity(t *testing.T) {
	vm, interp := compileBoth(t, divSource, pisa.RunningExampleTarget())
	for _, pkt := range []Packet{{"hdr.a": 10, "hdr.b": 2}, {"hdr.a": 10, "hdr.b": 0}, {"hdr.a": 3, "hdr.b": 1}} {
		_, errV := vm.Process(pkt)
		_, errI := interp.Process(pkt)
		if (errV == nil) != (errI == nil) || (errV != nil && errV.Error() != errI.Error()) {
			t.Fatalf("error parity broken on %v: vm=%v interp=%v", pkt, errV, errI)
		}
	}
	assertSameCounters(t, vm, interp)

	vm, interp = compileBoth(t, divSource, pisa.RunningExampleTarget())
	const bad = vmLanes + 5 // in the second batch, mid-batch
	pkts := make([]Packet, 2*vmLanes)
	for i := range pkts {
		pkts[i] = Packet{"hdr.a": uint64(i), "hdr.b": uint64(i%7 + 1)}
	}
	pkts[bad]["hdr.b"] = 0
	replay := func(p *Pipeline) (fired int, err error) {
		err = p.Replay(pkts, func(i int, v View) error {
			if i != fired {
				t.Fatalf("sink fired for packet %d, want %d", i, fired)
			}
			fired++
			return nil
		})
		return fired, err
	}
	firedV, errV := replay(vm)
	firedI, errI := replay(interp)
	if errV == nil || errI == nil || errV.Error() != errI.Error() {
		t.Fatalf("replay error parity broken: vm=%v interp=%v", errV, errI)
	}
	if want := "sim: packet 69: sim: division by zero"; errV.Error() != want {
		t.Fatalf("replay error = %q, want %q", errV, want)
	}
	if firedV != bad || firedI != bad {
		t.Fatalf("sinks fired for %d (vm) and %d (interp) packets, want %d", firedV, firedI, bad)
	}
	assertSameCounters(t, vm, interp)
}

// TestVMFallback pins the residual interpreter fallback: the three
// construct classes no lowering accepts are still served, by the
// interpreter, with the reason kept. The front end rejects two of them
// in source form, so each is grafted into a compiled unit's action body.
func TestVMFallback(t *testing.T) {
	const host = `
header hdr { bit<32> a; bit<32> b; }
symbolic int n;
struct meta { bit<32>[n] e; bit<32> q; }
action act()[int i] { %s }
control main { apply { for (i < n) { act()[i]; } } }
assume n >= 1 && n <= 2;
optimize n;
`
	cases := []struct {
		name, stmt, reason, runErr string
	}{
		{"non-constant elastic index", "meta.q = meta.e[hdr.a];", "index", ""},
		{"constant zero divisor", "meta.q = hdr.a / (2 - 2);", "zero divisor", "division by zero"},
		{"unknown name", "meta.q = hdr.a + bogus;", "unknown name bogus", "unknown name bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := core.Compile(strings.Replace(host, "%s", "meta.q = meta.e[i];", 1),
				simTestTarget(), core.Options{SkipCodegen: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			graft, err := lang.Parse(strings.Replace(host, "%s", c.stmt, 1))
			if err != nil {
				t.Fatalf("parse graft: %v", err)
			}
			for _, d := range graft.Decls {
				if a, ok := d.(*lang.ActionDecl); ok {
					res.Unit.Invocations[0].Action.Decl.Body = a.Body
				}
			}
			pipe, err := New(res.Unit, res.Layout)
			if err != nil {
				t.Fatal(err)
			}
			if pipe.EngineName() != "interp" {
				t.Fatalf("engine = %s, want interp fallback", pipe.EngineName())
			}
			if ferr := pipe.Fallback(); ferr == nil || !strings.Contains(ferr.Error(), c.reason) {
				t.Fatalf("Fallback() = %v, want a reason mentioning %q", ferr, c.reason)
			}
			out, err := pipe.Process(Packet{"hdr.a": 1, "hdr.b": 2})
			switch {
			case c.runErr == "" && (err != nil || out["hdr.b"] != 2):
				t.Fatalf("fallback did not serve the packet: %v, %v", out, err)
			case c.runErr != "" && (err == nil || !strings.Contains(err.Error(), c.runErr)):
				t.Fatalf("interpreter error = %v, want %q", err, c.runErr)
			}
		})
	}
}

// TestVMMatchesInterpreterOnCMS replays a zipf stream through both
// engines on the small test target and demands identical outputs,
// register state, and stats — the sim-level slice of difftest's engine
// oracle.
func TestVMMatchesInterpreterOnCMS(t *testing.T) {
	vm, interp := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	for i, k := range workload.ZipfKeys(5, 300, 1.05, 2500) {
		// Include an undeclared field, which the VM reads from the packet.
		pkt := Packet{"pkt.flow": k, "pkt.unknown": k ^ 0xABCD}
		a, err := vm.Process(pkt)
		if err != nil {
			t.Fatalf("vm packet %d: %v", i, err)
		}
		b, err := interp.Process(pkt)
		if err != nil {
			t.Fatalf("interp packet %d: %v", i, err)
		}
		assertSameOutputs(t, i, a, b)
	}
	assertSameCounters(t, vm, interp)
}

// TestReplayMatchesProcess checks the batched API against per-packet
// Process on a fresh pipeline: View.Get, View.Map, and output
// presence/absence must agree.
func TestReplayMatchesProcess(t *testing.T) {
	vm, _ := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	ref, _ := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	keys := workload.ZipfKeys(9, 100, 1.0, 500)
	pkts := make([]Packet, len(keys))
	for i, k := range keys {
		pkts[i] = Packet{"pkt.flow": k}
	}
	minKey := Key("cms_meta.min", -1)
	err := vm.Replay(pkts, func(i int, v View) error {
		want, err := ref.Process(pkts[i])
		if err != nil {
			return err
		}
		got, ok := v.Get(minKey)
		if !ok {
			t.Fatalf("packet %d: %s missing from view", i, minKey)
		}
		if got != want[minKey] {
			t.Fatalf("packet %d: view %s = %d, Process %d", i, minKey, got, want[minKey])
		}
		if _, ok := v.Get("no.such.field"); ok {
			t.Fatalf("packet %d: view invented a field", i)
		}
		assertSameOutputs(t, i, v.Map(), want)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplayZeroAllocs is the steady-state check on the small test
// target: a full default-engine replay must not allocate.
func TestReplayZeroAllocs(t *testing.T) {
	vm, _ := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	keys := workload.ZipfKeys(2, 500, 1.1, 256)
	pkts := make([]Packet, len(keys))
	for i, k := range keys {
		pkts[i] = Packet{"pkt.flow": k}
	}
	minKey := Key("cms_meta.min", -1)
	var sum uint64
	sink := func(i int, v View) error {
		val, _ := v.Get(minKey)
		sum += val
		return nil
	}
	// Warm up once so lazily-grown internal state settles.
	if err := vm.Replay(pkts, sink); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := vm.Replay(pkts, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("replay allocated %.1f objects per run, want 0", allocs)
	}
	_ = sum
}

// TestVMStaleStateInvisible replays a packet that sets fields, then
// one that does not; the second packet must not see or emit the
// first's values (the generation stamp is the only thing clearing the
// frame).
func TestVMStaleStateInvisible(t *testing.T) {
	vm, interp := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	out1, err := vm.Process(Packet{"pkt.flow": 7, "stray.key": 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out1["stray.key"]; !ok {
		t.Fatal("first packet's stray field missing from output")
	}
	out2, err := vm.Process(Packet{"pkt.flow": 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out2["stray.key"]; ok {
		t.Fatal("stray field from packet 1 leaked into packet 2's output")
	}
	// And the reference engine agrees on the second packet.
	if _, err := interp.Process(Packet{"pkt.flow": 7, "stray.key": 99}); err != nil {
		t.Fatal(err)
	}
	want, err := interp.Process(Packet{"pkt.flow": 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, 1, out2, want)
}

// TestParseEngine pins the CLI spellings: the deleted closure-plan
// engine's name is an unknown engine like any other.
func TestParseEngine(t *testing.T) {
	if e, err := ParseEngine("interp"); err != nil || e != EngineInterp {
		t.Fatalf("ParseEngine(interp) = %v, %v", e, err)
	}
	for _, name := range []string{"plan", "jit"} {
		if _, err := ParseEngine(name); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Fatalf("ParseEngine(%s) error = %v", name, err)
		}
	}
	if EngineInterp.String() != "interp" {
		t.Fatal("Engine.String spelling drifted from ParseEngine")
	}
}

// TestParseEngineVM pins the vm spelling, and that it is the zero value
// every Engine-typed config field defaults to.
func TestParseEngineVM(t *testing.T) {
	if e, err := ParseEngine("vm"); err != nil || e != EngineVM {
		t.Fatalf("ParseEngine(vm) = %v, %v", e, err)
	}
	var zero Engine
	if zero != EngineVM || EngineVM.String() != "vm" {
		t.Fatalf("zero Engine = %q, EngineVM = %q", zero, EngineVM)
	}
}

func TestKey(t *testing.T) {
	if got := Key("meta.count", 12); got != "meta.count@12" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("cms_meta.min", -1); got != "cms_meta.min" {
		t.Fatalf("scalar Key = %q", got)
	}
	if got := instKey("m.f", 0); got != "m.f@0" {
		t.Fatalf("instKey zero = %q", got)
	}
}

// TestInterpReplayFallback: the batched API must work (with per-packet
// maps) when the interpreter runs.
func TestInterpReplayFallback(t *testing.T) {
	_, interp := compileBoth(t, modules.StandaloneCMS(), simTestTarget())
	pkts := []Packet{{"pkt.flow": 1}, {"pkt.flow": 1}}
	minKey := Key("cms_meta.min", -1)
	var last uint64
	if err := interp.Replay(pkts, func(i int, v View) error {
		val, ok := v.Get(minKey)
		if !ok {
			t.Fatalf("packet %d: %s missing", i, minKey)
		}
		last = val
		if mv := v.Map(); mv[minKey] != val {
			t.Fatalf("packet %d: Map and Get disagree", i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Fatalf("second estimate = %d, want 2", last)
	}
}
