package sim

import (
	"testing"

	"p4all/internal/pisa"
)

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
	// The cost table, per packet: each row's incr takes one stateful
	// ALU (its read-modify-write), one hash unit and two stateless ALUs;
	// seeding the minimum takes one more, and taking it one per row
	// whose guard passes.
	var sum pisa.ActionProfile
	for _, c := range s.ALUs {
		sum = sum.Add(c)
	}
	if sum.RegisterAccesses != n*rows || sum.Hashes != n*rows ||
		sum.StatelessOps < n*(1+2*rows) || sum.StatelessOps > n*(1+3*rows) {
		t.Fatalf("charges %+v over %d packets of %d rows", sum, n, rows)
	}
	if s.TotalALUOps() != uint64(sum.RegisterAccesses+sum.StatelessOps+sum.Hashes) {
		t.Fatalf("TotalALUOps() = %d, want the sum of %+v", s.TotalALUOps(), sum)
	}
	if len(s.ALUs) != len(res.Layout.Stages) {
		t.Fatalf("ALUs has %d stages, layout has %d", len(s.ALUs), len(res.Layout.Stages))
	}
	// Work must land in the stages the layout actually used, nowhere
	// else.
	for stage, c := range s.ALUs {
		used := false
		for _, pl := range res.Layout.Placements {
			if pl.Stage == stage {
				used = true
				break
			}
		}
		if c != (pisa.ActionProfile{}) && !used {
			t.Errorf("stage %d charged %+v but has no placements", stage, c)
		}
	}

	// Stats must return a snapshot, not alias live state.
	s.ALUs[0].Hashes = 999999
	if pipe.Stats().ALUs[0].Hashes == 999999 {
		t.Fatal("Stats aliases internal counters")
	}
}
