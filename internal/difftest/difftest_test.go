package difftest

import (
	"runtime"
	"strings"
	"testing"

	"p4all/internal/core"
	"p4all/internal/pisa"
	"p4all/internal/sim"
)

// TestDeterministicSlice is the tier-1 entry point for the harness: a
// fixed-seed run over all four benchmark apps at two budgets, with the
// expensive layout-invariance oracle capped to the first two
// app/budget pairs. cmd/difftest runs the full matrix offline.
func TestDeterministicSlice(t *testing.T) {
	rep, err := Run(Config{
		Seed:          1,
		N:             250,
		Budgets:       []int{1 << 19, 1 << 20},
		maxLayoutRuns: 2,
		Shrink:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("no oracle checks ran")
	}
	for _, f := range rep.Failures {
		t.Errorf("oracle violation: %s", f)
	}
	t.Logf("%d checks, %d packets", rep.Checks, rep.Packets)
}

// TestTenantOracle runs the multi-tenant equivalence oracle on its own:
// the joint NetCache+SketchLearn compile's per-tenant behavior must be
// bit-identical to each tenant compiled alone at its allocated sizes.
func TestTenantOracle(t *testing.T) {
	rep, err := Run(Config{
		Seed:    2,
		N:       250,
		Budgets: []int{1 << 19},
		Apps:    []string{"NetCache", "SketchLearn"},
		Oracles: []string{OracleTenant},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks != 2 {
		t.Fatalf("got %d tenant checks, want 2", rep.Checks)
	}
	for _, f := range rep.Failures {
		t.Errorf("oracle violation: %s", f)
	}
}

// TestTenantOracleSkipsSingleApp: with one app selected there is no mix
// to compile; the oracle must skip rather than fail.
func TestTenantOracleSkipsSingleApp(t *testing.T) {
	rep, err := Run(Config{
		Seed:    2,
		N:       10,
		Budgets: []int{1 << 19},
		Apps:    []string{"Precision"},
		Oracles: []string{OracleTenant},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks != 0 || !rep.Ok() {
		t.Fatalf("single-app tenant oracle: %d checks, failures %v", rep.Checks, rep.Failures)
	}
}

// compileSpec compiles an app spec at a small budget with the
// harness's deterministic solver.
func compileSpec(t *testing.T, spec AppSpec, budget int) *core.Result {
	t.Helper()
	res, err := core.Compile(spec.Source, pisa.EvalTarget(budget), baseSolver())
	if err != nil {
		t.Fatalf("compile %s: %v", spec.Name, err)
	}
	return res
}

// TestGoldenOracleDetectsCorruption proves the sim-vs-golden oracle
// can actually fail: corrupting a sketch register mid-replay must
// produce a divergence. A harness whose oracles cannot fire validates
// nothing.
func TestGoldenOracleDetectsCorruption(t *testing.T) {
	spec := conquestSpec()
	res := compileSpec(t, spec, 1<<19)
	pipe, err := sim.New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := spec.NewGolden(res.Layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := GenStream(spec, 1, 100)
	diverged := false
	for i, pkt := range stream {
		if i == 50 {
			// Zero every snap0 row: the pipeline forgets 50 packets
			// of history the golden model still carries.
			rows := int(res.Layout.Symbolic("snap0_rows"))
			for r := 0; r < rows; r++ {
				store, ok := pipe.Register("snap0_sketch", r)
				if !ok {
					t.Fatalf("snap0_sketch/%d missing", r)
				}
				for c := range store {
					store[c] = 0
				}
			}
		}
		out, err := pipe.Process(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want := golden.Process(pkt)
		for _, f := range golden.Checks() {
			if out[f] != want[f] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("golden oracle missed a corrupted register file")
	}
}

// TestShrinkMinimizes drives ddmin with a synthetic two-packet
// failure condition: the minimized stream must keep exactly the
// culprits.
func TestShrinkMinimizes(t *testing.T) {
	stream := make([]sim.Packet, 100)
	for i := range stream {
		stream[i] = sim.Packet{{Name: "pkt.flow", Value: uint64(i)}}
	}
	fails := func(s []sim.Packet) bool {
		has7, has13 := false, false
		for _, pkt := range s {
			switch flow, _ := pkt.Get("pkt.flow"); flow {
			case 7:
				has7 = true
			case 13:
				has13 = true
			}
		}
		return has7 && has13
	}
	min := Shrink(stream, fails)
	if !fails(min) {
		t.Fatal("shrunken stream no longer fails")
	}
	if len(min) != 2 {
		t.Errorf("expected 2-packet minimum, got %d: %s", len(min), formatStream(min))
	}
}

// TestGenStreamFootprint bounds the live heap a generated stream holds:
// a packet is its slice header plus one (name, value) pair per field in
// a backing array the whole stream shares. The streams dominate the
// replay benchmark's peak RSS, and a packet held as a Go map costs
// about 264 B whatever its field count.
func TestGenStreamFootprint(t *testing.T) {
	const n = 65536
	const maxBytesPerPacket = 128
	for _, spec := range Specs() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stream := GenStream(spec, 1, n)
		runtime.GC()
		runtime.ReadMemStats(&after)
		perPacket := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(stream)
		t.Logf("%s: %d fields, %.1f B per packet", spec.Name, len(spec.Fields), perPacket)
		if perPacket > maxBytesPerPacket {
			t.Errorf("%s: a %d-packet stream holds %.1f B per packet live, want <= %d", spec.Name, n, perPacket, maxBytesPerPacket)
		}
	}
}

// field reads a packet's field, zero when it is absent.
func field(pkt sim.Packet, name string) uint64 {
	v, _ := pkt.Get(name)
	return v
}

func TestGenStreamDeterministic(t *testing.T) {
	spec := precisionSpec()
	a := GenStream(spec, 42, 50)
	b := GenStream(spec, 42, 50)
	c := GenStream(spec, 43, 50)
	for i := range a {
		for _, f := range spec.Fields {
			if field(a[i], f.Name) != field(b[i], f.Name) {
				t.Fatalf("same seed diverged at packet %d field %s", i, f.Name)
			}
		}
		if w := widthMask(16); field(a[i], "pkt.len") > w {
			t.Fatalf("packet %d: pkt.len %d exceeds 16-bit width", i, field(a[i], "pkt.len"))
		}
	}
	same := true
	for i := range a {
		if field(a[i], "pkt.flow") != field(c[i], "pkt.flow") {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical key streams")
	}
}

func TestRunRejectsUnknownApp(t *testing.T) {
	_, err := Run(Config{Apps: []string{"NoSuchApp"}})
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("expected unknown-app error, got %v", err)
	}
}

// TestRunRejectsUnknownOracle keeps a retired or misspelled oracle name
// from silently running fewer checks.
func TestRunRejectsUnknownOracle(t *testing.T) {
	_, err := Run(Config{Oracles: []string{OracleGolden, "snapshot"}})
	if err == nil || !strings.Contains(err.Error(), `unknown oracle "snapshot"`) {
		t.Fatalf("expected unknown-oracle error, got %v", err)
	}
}

// TestPinnedSourcePinsEverySymbolic compiles a pinned program and
// verifies the re-solve reproduces the exact symbolic assignment —
// the precondition oracle 1's output comparison rests on.
func TestPinnedSourcePinsEverySymbolic(t *testing.T) {
	spec := sketchlearnSpec()
	res := compileSpec(t, spec, 1<<19)
	pinned := pinnedSource(spec.Source, res.Layout)
	tgt := pisa.EvalTarget(1 << 19)
	tgt.Stages += 3
	re, err := core.Compile(pinned, tgt, baseSolver())
	if err != nil {
		t.Fatalf("pinned compile: %v", err)
	}
	if d := diffSymbolics(res.Layout, re.Layout); d != "" {
		t.Fatalf("pinned re-solve changed the assignment: %s", d)
	}
}
