package sim

import "testing"

func TestPipelineStatsCountWork(t *testing.T) {
	res, pipe := compileCMS(t)
	rows := int(res.Layout.Symbolic("cms_rows"))

	if s := pipe.Stats(); s.Packets != 0 || s.RegReads != 0 || s.RegWrites != 0 || s.TotalALUOps() != 0 {
		t.Fatalf("fresh pipeline has nonzero stats: %+v", s)
	}

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := pipe.Process(Packet{{"pkt.key", uint64(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}

	s := pipe.Stats()
	if s.Packets != n {
		t.Fatalf("Packets = %d, want %d", s.Packets, n)
	}
	// A CMS increments one cell per row per packet: each packet does a
	// read-modify-write in every placed row.
	if want := uint64(n * rows); s.RegReads < want || s.RegWrites < want {
		t.Fatalf("RegReads = %d, RegWrites = %d, want >= %d each (rows=%d)",
			s.RegReads, s.RegWrites, want, rows)
	}
	if s.TotalALUOps() == 0 {
		t.Fatal("no ALU ops counted")
	}
	if len(s.ALUOps) != len(res.Layout.Stages) {
		t.Fatalf("ALUOps has %d stages, layout has %d", len(s.ALUOps), len(res.Layout.Stages))
	}
	// Work must land in the stages the layout actually used, nowhere
	// else.
	for stage, ops := range s.ALUOps {
		used := false
		for _, pl := range res.Layout.Placements {
			if pl.Stage == stage {
				used = true
				break
			}
		}
		if ops > 0 && !used {
			t.Errorf("stage %d counted %d ALU ops but has no placements", stage, ops)
		}
	}

	// Stats must return a snapshot, not alias live state.
	s.ALUOps[0] = 999999
	if pipe.Stats().ALUOps[0] == 999999 {
		t.Fatal("Stats aliases internal counters")
	}
}
