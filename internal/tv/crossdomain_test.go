package tv

import (
	"maps"
	"slices"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/codegen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/sem"
	"p4all/internal/sim"
	"p4all/internal/structures"
)

// TestSourceSideMatchesInterpreter runs the shared walker in both of
// its domains on the same packets: tv's source side in concrete mode
// (header inputs bound to the machine's per-trial constants, registers
// zero) and a fresh sim.EngineInterp pipeline fed those header values.
// Per packet the two must agree on the abort, every header and metadata
// output, every register cell, RegReads, RegWrites and the per-stage
// ALU charges: the leaves each domain supplies (masking, cell wrap,
// constant folding, interval pruning, storage) compute the same thing.
// Besides the shipped programs it runs narrowStore, whose register is
// narrower than the value stored in it, so the register-width mask is
// held to the interpreter's too. The interpreter is fed 64-bit header
// values: both sides must cut each to its field's declared width where
// it enters.
func TestSourceSideMatchesInterpreter(t *testing.T) {
	progs := [][2]string{
		{"NarrowStore", narrowStore},
		{"StandaloneCMS", modules.StandaloneCMS()},
		{"StandaloneBloom", modules.StandaloneBloom()},
		{"StandaloneKVS", modules.StandaloneKVS()},
		{"StandaloneHashTable", modules.StandaloneHashTable()},
		{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		{"StandaloneIDTable", modules.StandaloneIDTable()},
	}
	for _, a := range append(apps.All(), apps.FlowRadar(), apps.HashPipe()) {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	compiled := 0
	for _, p := range progs {
		u, layout, prog, err := compile(p[1], pisa.EvalTarget(pisa.Mb))
		if err != nil {
			t.Logf("%s: %v", p[0], err)
			continue
		}
		compiled++
		t.Run(p[0], func(t *testing.T) {
			m, fail := newMachine(u, layout, codegen.Render(prog), 1<<16, 1<<18)
			if fail != nil {
				t.Fatalf("setup: %s: %s", fail.Kind, fail.Detail)
			}
			m.concrete = true
			var headers []*lang.MetaField
			for _, si := range u.Structs {
				if si.IsHeader {
					headers = append(headers, si.Fields...)
				}
			}
			for trial := uint64(1); trial <= 16; trial++ {
				m.trial = trial
				m.beginRun()
				if err := m.run(&m.srcEv); err != nil {
					t.Fatalf("trial %d: source side: %v", trial, err)
				}
				pkt := make(sim.Packet, 0, len(headers))
				want := make(map[string]uint64, len(headers))
				for _, h := range headers {
					pkt = append(pkt, sim.Field{Name: h.Qual(), Value: structures.Hash(fnv1a(h.Qual()), trial)})
					want[h.Qual()] = concreteInput(h.Qual(), h.Width, trial)
				}
				pipe, err := sim.NewEngine(u, layout, sim.EngineInterp)
				if err != nil {
					t.Fatal(err)
				}
				out, err := pipe.Process(pkt)
				if got, wantAbort := err != nil, m.src.aborted != ""; got != wantAbort ||
					wantAbort && err.Error() != "sim: "+m.src.aborted {
					t.Fatalf("trial %d: interpreter error %v, source abort %q", trial, err, m.src.aborted)
				}
				if err == nil {
					for i, f := range m.fields {
						if e := m.src.fields[i]; e.stamp == m.gen {
							want[f.key] = constVal(t, e.n)
						}
					}
					if !maps.Equal(out, want) {
						t.Fatalf("trial %d: interpreter outputs %v, source side %v", trial, out, want)
					}
					for _, h := range headers {
						if lim := sem.WidthMask(h.Width); out[h.Qual()] > lim || want[h.Qual()] > lim {
							t.Fatalf("trial %d: bit<%d> field %s is %d in the interpreter, %d on the source side", trial, h.Width, h.Qual(), out[h.Qual()], want[h.Qual()])
						}
					}
				}
				for i, r := range m.regs {
					cells, ok := pipe.Register(r.name, int(r.inst))
					if !ok {
						t.Fatalf("register %s/%d not materialized", r.name, r.inst)
					}
					written := map[uint64]uint64{}
					if e := m.src.regs[i]; e.stamp == m.gen {
						written = storedCells(t, e.n)
					}
					for c, v := range cells {
						if v != written[uint64(c)] {
							t.Fatalf("trial %d: %s/%d[%d] = %d in the interpreter, %d on the source side", trial, r.name, r.inst, c, v, written[uint64(c)])
						}
					}
				}
				st := pipe.Stats()
				if st.RegReads != m.src.regReads || st.RegWrites != m.src.regWrites || !slices.Equal(st.ALUs, m.src.alu) {
					t.Fatalf("trial %d: interpreter stats %d reads, %d writes, ALU %v; source side %d, %d, %v",
						trial, st.RegReads, st.RegWrites, st.ALUs, m.src.regReads, m.src.regWrites, m.src.alu)
				}
			}
		})
	}
	if compiled < 10 {
		t.Errorf("only %d of %d shipped programs compiled", compiled, len(progs))
	}
}

// narrowStore stores a 32-bit header field into an 8-bit register and
// reads the cell back into a 32-bit field: only the register-width mask
// on the store keeps the high bits out of the cell and the field.
const narrowStore = `
header pkt {
    bit<32> flow;
    bit<32> payload;
}

symbolic int ns_rows;
symbolic int ns_cols;

struct ns_meta {
    bit<32>[ns_rows] index;
    bit<32>[ns_rows] back;
}

register<bit<8>>[ns_cols][ns_rows] ns_cells;

action ns_store()[int i] {
    ns_meta.index[i] = hash(pkt.flow, i) % ns_cols;
    ns_cells[i][ns_meta.index[i]] = pkt.payload;
    ns_meta.back[i] = ns_cells[i][ns_meta.index[i]];
}

control main {
    apply {
        for (i < ns_rows) {
            ns_store()[i];
        }
    }
}

optimize ns_rows * ns_cols;
`

func constVal(t *testing.T, n *node) uint64 {
	t.Helper()
	if !n.isConst() {
		t.Fatalf("concrete run left a symbolic value %s", nodeString(n, 4))
	}
	return n.val
}

// storedCells reads a concrete store chain over zeroed initial contents
// into cell -> value, the latest store to a cell winning.
func storedCells(t *testing.T, arr *node) map[uint64]uint64 {
	t.Helper()
	cells := map[uint64]uint64{}
	for ; arr.kind == kStore; arr = arr.args[0] {
		idx := constVal(t, arr.args[1])
		if _, ok := cells[idx]; !ok {
			cells[idx] = constVal(t, arr.args[2])
		}
	}
	if arr.kind != kArrial {
		t.Fatalf("store chain ends in %s", nodeString(arr, 2))
	}
	return cells
}
