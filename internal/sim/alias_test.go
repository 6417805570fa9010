package sim

import (
	"errors"
	"slices"
	"testing"

	"p4all/internal/pisa"
)

const headerWritingProgram = `
header pkt { bit<32> flow; bit<32> tag; }
struct meta { bit<32> seen; }
action stamp() {
    pkt.tag = pkt.tag + pkt.flow;
    meta.seen = pkt.tag;
}
control main { apply { stamp(); } }
`

// TestProcessDoesNotMutateCallerPacket is the regression test for the
// Packet-aliasing bug: header-field writes used to land in the
// caller's map, so replaying the same Packet value compounded state.
func TestProcessDoesNotMutateCallerPacket(t *testing.T) {
	pipe := compileSrc(t, headerWritingProgram)
	pkt := Packet{{"pkt.flow", 7}, {"pkt.tag", 100}}
	out, err := pipe.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pkt, Packet{{"pkt.flow", 7}, {"pkt.tag", 100}}) {
		t.Fatalf("caller's packet mutated: %v", pkt)
	}
	if v, _ := Meta(out, "meta.seen", -1); v != 107 {
		t.Errorf("meta.seen = %d, want 107", v)
	}
	if out["pkt.tag"] != 107 {
		t.Errorf("returned header view pkt.tag = %d, want 107", out["pkt.tag"])
	}
}

// TestReplaySamePacketIsDeterministic replays one Packet value twice
// through a header-writing (but stateless) pipeline; both runs must
// produce identical output.
func TestReplaySamePacketIsDeterministic(t *testing.T) {
	pipe := compileSrc(t, headerWritingProgram)
	pkt := Packet{{"pkt.flow", 3}, {"pkt.tag", 40}}
	out1, err := pipe.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := pipe.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != len(out2) {
		t.Fatalf("replay changed output shape: %v vs %v", out1, out2)
	}
	for k, v := range out1 {
		if out2[k] != v {
			t.Errorf("replay diverged at %s: %d vs %d", k, v, out2[k])
		}
	}
}

// TestHeaderStateResetBetweenPackets: a header write from one packet
// must not leak into the next packet's view of an absent field.
func TestHeaderStateResetBetweenPackets(t *testing.T) {
	pipe := compileSrc(t, headerWritingProgram)
	if _, err := pipe.Process(Packet{{"pkt.flow", 1}, {"pkt.tag", 999}}); err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Process(Packet{{"pkt.flow", 1}})
	if err != nil {
		t.Fatal(err)
	}
	// pkt.tag absent on the second packet: it reads as zero, so the
	// stamped value is just the flow.
	if out["pkt.tag"] != 1 {
		t.Errorf("stale header state leaked: pkt.tag = %d, want 1", out["pkt.tag"])
	}
}

// sparseReadProgram reads one header field, declares a second it
// never touches, and writes a meta field only when its guard fires.
const sparseReadProgram = `
header pkt { bit<32> flow; bit<32> len; }
struct meta { bit<32> tag; }
action mark() {
    meta.tag = pkt.flow + 1;
}
control main { apply { if (pkt.flow == 5) { mark(); } } }
`

// TestReplayReadsCallerPacket pins what a VM view reads: the slots the
// program stamped, and the caller's packet for every other field. Over
// packets that lack the field the program reads, carry a key named
// like the guarded meta field (with the guard firing and not) or an
// undeclared stray, View.Get and View.Map must equal the interpreter's
// Process, the caller's packets must come back unchanged, and the
// frame must not keep them once Replay or Process returns.
func TestReplayReadsCallerPacket(t *testing.T) {
	vm, interp := compileBoth(t, sparseReadProgram, pisa.RunningExampleTarget())
	shapes := []Packet{
		{{"pkt.len", 9}},
		{{"pkt.flow", 5}, {"meta.tag", 77}},
		{{"pkt.flow", 4}, {"meta.tag", 77}},
		{{"pkt.flow", 5}, {"pkt.len", 3}, {"stray.key", 11}},
		{{"stray.key", 1}, {"meta.tag", 2}},
	}
	pkts := make([]Packet, 2*vmLanes+3) // two full batches and a tail
	before := make([]Packet, len(pkts))
	for i := range pkts {
		pkts[i] = slices.Clone(shapes[i%len(shapes)])
		for j := range pkts[i] {
			if pkts[i][j].Name == "pkt.len" {
				pkts[i][j].Value = uint64(i)
			}
		}
		before[i] = slices.Clone(pkts[i])
	}
	names := []string{"pkt.flow", "pkt.len", "meta.tag", "stray.key", "no.such.field"}
	err := vm.Replay(pkts, func(i int, v View) error {
		want, err := interp.Process(pkts[i])
		if err != nil {
			return err
		}
		for _, name := range names {
			got, ok := v.Get(name)
			if w, wok := want[name]; ok != wok || got != w {
				t.Fatalf("packet %d: Get(%s) = %d (present=%v), Process %d (present=%v)", i, name, got, ok, w, wok)
			}
		}
		assertSameOutputs(t, i, v.Map(), want)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if !slices.Equal(pkts[i], before[i]) {
			t.Fatalf("packet %d: caller's packet changed: %v, was %v", i, pkts[i], before[i])
		}
	}
	assertNoPinnedPackets(t, vm, "Replay")

	stop := errors.New("stop")
	if err := vm.Replay(pkts, func(i int, v View) error {
		if i == vmLanes+5 {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatalf("Replay returned %v, want the sink's error", err)
	}
	assertNoPinnedPackets(t, vm, "a sink error")

	if _, err := vm.Process(pkts[1]); err != nil {
		t.Fatal(err)
	}
	assertNoPinnedPackets(t, vm, "Process")
}

func assertNoPinnedPackets(t *testing.T, p *Pipeline, after string) {
	t.Helper()
	for l, pkt := range p.vmf.pkt {
		if pkt != nil {
			t.Fatalf("after %s, frame lane %d still holds the caller's packet %v", after, l, pkt)
		}
	}
}

// TestPacketFieldEdgeCases holds both engines to Packet's
// first-occurrence rule and to its edge shapes: names carried twice (a
// field the program reads and writes, and one it never reads), a name
// the program never reads, and no fields at all. The VM through Replay and through Process and the
// interpreter must agree on outputs, Stats and register state, and a
// View must read an untouched field from the caller's packet.
func TestPacketFieldEdgeCases(t *testing.T) {
	replayVM, interp := compileBoth(t, headerWritingProgram, pisa.RunningExampleTarget())
	processVM, _ := compileBoth(t, headerWritingProgram, pisa.RunningExampleTarget())
	pkts := []Packet{
		{{"pkt.flow", 7}, {"stray.key", 11}, {"pkt.tag", 100}, {"pkt.flow", 900}, {"stray.key", 12}, {"pkt.tag", 5}},
		{{"pkt.flow", 3}, {"unread.key", 21}, {"pkt.tag", 1}},
		{},
	}
	wants := []map[string]uint64{
		{"pkt.flow": 7, "pkt.tag": 107, "meta.seen": 107, "stray.key": 11},
		{"pkt.flow": 3, "pkt.tag": 4, "meta.seen": 4, "unread.key": 21},
		{"pkt.tag": 0, "meta.seen": 0},
	}
	untouched := []struct {
		name string
		val  uint64
		ok   bool
	}{{"stray.key", 11, true}, {"unread.key", 21, true}, {"unread.key", 0, false}}
	err := replayVM.Replay(pkts, func(i int, v View) error {
		u := untouched[i]
		if got, ok := v.Get(u.name); got != u.val || ok != u.ok {
			t.Errorf("packet %d: View.Get(%s) = %d (present=%v), want %d (present=%v)", i, u.name, got, ok, u.val, u.ok)
		}
		assertSameOutputs(t, i, v.Map(), wants[i])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range pkts {
		got, err := processVM.Process(pkt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutputs(t, i, got, wants[i])
		if got, err = interp.Process(pkt); err != nil {
			t.Fatal(err)
		}
		assertSameOutputs(t, i, got, wants[i])
	}
	assertSameCounters(t, replayVM, interp)
	assertSameCounters(t, processVM, interp)
}
