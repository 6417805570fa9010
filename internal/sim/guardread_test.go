package sim

import (
	"slices"
	"testing"

	"p4all/internal/core"
	"p4all/internal/pisa"
)

// guardReadSource reads register s in a guard after wr writes it. The
// guard's read is a read of mark's instance, so mark must run in the
// stage that holds s, after wr: in program order pkt.a = 5 makes s[0] 7
// and marks the packet.
const guardReadSource = `
header pkt { bit<32> a; }
struct meta { bit<32> z1; bit<32> z2; bit<32> marked; }
register<bit<32>>[16] s;
action c1() { meta.z1 = pkt.a + 1; }
action c2() { meta.z2 = meta.z1 + 1; }
action wr() { s[0] = meta.z2; }
action mark() { meta.marked = 1; }
control main { apply { c1(); c2(); wr(); if (s[0] == 7) { mark(); } } }
`

// TestGuardRegisterReadPlacesItsInvocation: mark shares s's dependency
// node and stage, both engines mark the packet through Process and
// Replay, and the certificate proves.
func TestGuardRegisterReadPlacesItsInvocation(t *testing.T) {
	for _, tgt := range []pisa.Target{pisa.RunningExampleTarget(), pisa.EvalTarget(pisa.Mb)} {
		t.Run(tgt.Name, func(t *testing.T) {
			res, err := core.Compile(guardReadSource, tgt, core.Options{Certify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certificate.Proved() {
				t.Errorf("certificate: %s", res.Certificate.Summary())
			}
			node, stage := map[string]int{}, map[string]int{}
			for _, pl := range res.Layout.Placements {
				node[pl.Action], stage[pl.Action] = pl.Node, pl.Stage
			}
			if node["mark"] != node["wr"] {
				t.Errorf("mark in node %d, wr (which writes s) in node %d", node["mark"], node["wr"])
			}
			for _, rp := range res.Layout.Registers {
				if rp.Register == "s" && !slices.Contains(rp.Stages, stage["mark"]) {
					t.Errorf("mark at stage %d, register s at stages %v", stage["mark"], rp.Stages)
				}
			}
			pkt := Packet{{"pkt.a", 5}}
			process, replay := [2]*Pipeline{}, [2]*Pipeline{}
			process[0], process[1] = newPair(t, res)
			replay[0], replay[1] = newPair(t, res)
			for i := range 2 {
				out, err := process[i].Process(pkt)
				if err != nil || out["meta.marked"] != 1 {
					t.Errorf("%s Process: meta.marked = %d (%v), want 1", process[i].EngineName(), out["meta.marked"], err)
				}
				err = replay[i].Replay([]Packet{pkt}, func(_ int, v View) error {
					if got, _ := v.Get("meta.marked"); got != 1 {
						t.Errorf("%s Replay: meta.marked = %d, want 1", replay[i].EngineName(), got)
					}
					return nil
				})
				if err != nil {
					t.Errorf("%s Replay: %v", replay[i].EngineName(), err)
				}
			}
		})
	}
}
