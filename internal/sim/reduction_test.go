package sim

import (
	"testing"

	"p4all/internal/core"
	"p4all/internal/pisa"
)

// mixedReductionSource adds pkt.a to meta.x and then takes its minimum
// with pkt.b. In program order pkt.a = 50 and pkt.b = 120 leave meta.x
// = min(100 + 50, 120) = 120; a layout that ran the minimum first would
// give min(100, 120) + 50 = 150.
const mixedReductionSource = `
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> x; }
action seed() { meta.x = 100; }
action addx() { meta.x = meta.x + pkt.a; }
action minx() { meta.x = pkt.b; }
control main { apply { seed(); addx(); if (pkt.b < meta.x) { minx(); } } }
`

// TestMixedReductionsKeepProgramOrder: a sum and a guarded minimum of
// one field run in program order on both engines, and the certificate
// proves.
func TestMixedReductionsKeepProgramOrder(t *testing.T) {
	res, err := core.Compile(mixedReductionSource, pisa.RunningExampleTarget(), core.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certificate.Proved() {
		t.Errorf("certificate: %s", res.Certificate.Summary())
	}
	vm, interp := newPair(t, res)
	for _, p := range []*Pipeline{vm, interp} {
		out, err := p.Process(Packet{{"pkt.a", 50}, {"pkt.b", 120}})
		if err != nil || out["meta.x"] != 120 {
			t.Errorf("%s: meta.x = %d (%v), want 120", p.EngineName(), out["meta.x"], err)
		}
	}
}
