package difftest

import (
	"strings"
	"testing"

	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/pisa"
)

// chargeHost is a program with one elastic action, %s its body.
const chargeHost = `
header pkt { bit<32> a; bit<32> b; bit<8> c; }
symbolic int n;
struct meta { bit<32>[n] idx; bit<32>[n] got; }
register<bit<32>>[64][n] r;
action step()[int i] { %s }
control main { apply { for (i < n) { step()[i]; } } }
assume n >= 1 && n <= 4;
optimize n;
`

// TestChargesOnEnginesAndCertificate runs programs whose charges
// depend on the path a packet takes through both engines under the
// engine oracle (outputs, registers and charges agree, and each
// packet's charge fits the layout's budget) and certifies each.
func TestChargesOnEnginesAndCertificate(t *testing.T) {
	bodies := map[string]string{
		// One register instance read in one arm and written in the
		// other: one stateful ALU whichever arm runs.
		"RMWArms": `meta.idx[i] = pkt.a % 64;
			if (pkt.c == 1) { meta.got[i] = r[i][meta.idx[i]]; } else { r[i][meta.idx[i]] = pkt.b; }`,
		// A hash unit in each register cell index.
		"HashCell": `r[i][hash(pkt.a, i) % 64] = r[i][hash(pkt.a, i) % 64] + 1;
			meta.got[i] = r[i][hash(pkt.a, i) % 64];`,
		// A PHV write only in the else arm.
		"ElseWrite": `if (pkt.c == 1) { } else { meta.got[i] = pkt.a + pkt.b; }`,
	}
	fields := []FieldSpec{{Name: "pkt.a", Width: 32, Key: true}, {Name: "pkt.b", Width: 32}, {Name: "pkt.c", Width: 1}}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			spec := AppSpec{Name: name, Source: strings.Replace(chargeHost, "%s", body, 1), Fields: fields}
			res, err := core.Compile(spec.Source, pisa.EvalTarget(pisa.Mb), core.Options{Solver: ilp.Options{Gap: 0.1}, Certify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certificate.Proved() {
				t.Fatalf("certificate: %s %v", res.Certificate.Summary(), res.Certificate.Failures())
			}
			div, detail, err := replayEngines(spec, res, GenStream(spec, 3, 500), 3)
			switch {
			case err != nil:
				t.Fatal(err)
			case detail != "":
				t.Fatal(detail)
			case div != nil:
				t.Fatalf("engines diverged: %s", div)
			}
		})
	}
}

// TestOverBudgetStageFails shrinks the stateless budget of a stage a
// StandaloneCMS row update fills by one ALU: the engine oracle must
// flag the first packet.
func TestOverBudgetStageFails(t *testing.T) {
	var spec AppSpec
	for _, s := range engineSpecs() {
		if s.Name == "StandaloneCMS" {
			spec = s
		}
	}
	res := fuzzCompileAll(t, spec)[spec.Name]
	stage := -1
	for _, pl := range res.Layout.Placements {
		if strings.HasSuffix(pl.Action, "_incr") {
			stage = pl.Stage
			break
		}
	}
	if stage < 0 {
		t.Fatal("no row update placed")
	}
	shrunk := *res
	layout := *res.Layout
	layout.Stages = append([]ilpgen.StageUse(nil), layout.Stages...)
	layout.Stages[stage].Hl--
	shrunk.Layout = &layout
	_, detail, err := replayEngines(spec, &shrunk, GenStream(spec, 1, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(detail, "packet 0: stage ") || !strings.Contains(detail, "the layout budgets") {
		t.Fatalf("engine oracle on a layout one stateless ALU short: %q", detail)
	}
	if _, detail, _ := replayEngines(spec, res, GenStream(spec, 1, 10), 1); detail != "" {
		t.Fatalf("engine oracle on the layout as solved: %s", detail)
	}
}
