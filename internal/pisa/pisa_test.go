package pisa

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinTargetsValidate(t *testing.T) {
	for _, tgt := range []Target{EvalTarget(Mb), RunningExampleTarget(), TofinoLike()} {
		if err := tgt.Validate(); err != nil {
			t.Errorf("%s: %v", tgt.Name, err)
		}
	}
}

func TestRunningExampleParameters(t *testing.T) {
	tgt := RunningExampleTarget()
	if tgt.Stages != 3 || tgt.MemoryBits != 2048 || tgt.StatefulALUs != 2 || tgt.StatelessALUs != 2 || tgt.PHVBits != 4096 {
		t.Errorf("running example target = %+v, want S=3 M=2048 F=2 L=2 P=4096", tgt)
	}
	if got := tgt.TotalALUs(); got != 12 {
		t.Errorf("TotalALUs = %d, want (2+2)*3 = 12", got)
	}
}

func TestEvalTargetParameters(t *testing.T) {
	tgt := EvalTarget(7 * Mb / 4)
	if tgt.Stages != 10 || tgt.StatefulALUs != 4 || tgt.StatelessALUs != 100 || tgt.PHVBits != 4096 {
		t.Errorf("eval target = %+v, want S=10 F=4 L=100 P=4096", tgt)
	}
	if tgt.MemoryBits != 1835008 {
		t.Errorf("MemoryBits = %d, want 1.75 Mb = 1835008", tgt.MemoryBits)
	}
}

func TestValidateRejectsBadTargets(t *testing.T) {
	cases := []struct {
		name string
		tgt  Target
		want string
	}{
		{"zero stages", Target{Name: "t", PHVBits: 1}, "stages"},
		{"negative memory", Target{Name: "t", Stages: 1, MemoryBits: -1, PHVBits: 1}, "memory"},
		{"negative ALUs", Target{Name: "t", Stages: 1, StatefulALUs: -1, PHVBits: 1}, "ALU"},
		{"zero PHV", Target{Name: "t", Stages: 1}, "phv"},
		{"fixed PHV too big", Target{Name: "t", Stages: 1, PHVBits: 10, FixedPHVBits: 11}, "fixed_phv"},
		{"negative hash units", Target{Name: "t", Stages: 1, PHVBits: 10, HashUnits: -2}, "hash"},
	}
	for _, tc := range cases {
		err := tc.tgt.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid target", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCostFunctions(t *testing.T) {
	tgt := RunningExampleTarget()
	prof := ActionProfile{RegisterAccesses: 1, StatelessOps: 2, Hashes: 1}
	if got := tgt.Hf(prof); got != 1 {
		t.Errorf("Hf = %d, want 1", got)
	}
	if got := tgt.Hl(prof); got != 2 {
		t.Errorf("Hl = %d, want 2 (hash on hash units)", got)
	}
	tgt.Cost = ALUCost{PerRegisterAccess: 2, PerStatelessOp: 1, PerHash: 3}
	if got := tgt.Hf(prof); got != 2 {
		t.Errorf("custom Hf = %d, want 2", got)
	}
	if got := tgt.Hl(prof); got != 5 {
		t.Errorf("custom Hl = %d, want 2*1+1*3 = 5", got)
	}
}

func TestElasticPHVBits(t *testing.T) {
	tgt := EvalTarget(Mb)
	tgt.FixedPHVBits = 512
	if got := tgt.ElasticPHVBits(); got != 4096-512 {
		t.Errorf("ElasticPHVBits = %d, want 3584", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := TofinoLike()
	want.AllowRegisterSpread = true
	want.Cost = ALUCost{PerRegisterAccess: 1, PerStatelessOp: 2, PerHash: 1}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTarget(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseTargetRejectsGarbage(t *testing.T) {
	if _, err := ParseTarget([]byte("{not json")); err == nil {
		t.Error("ParseTarget accepted malformed JSON")
	}
	if _, err := ParseTarget([]byte(`{"name":"x","stages":0,"phv_bits":1}`)); err == nil {
		t.Error("ParseTarget accepted an invalid target")
	}
}

func TestLoadTargetMissingFile(t *testing.T) {
	if _, err := LoadTarget("/nonexistent/target.json"); err == nil {
		t.Error("LoadTarget accepted a missing file")
	}
}

func TestQuickCostNonNegativeAndMonotone(t *testing.T) {
	tgt := TofinoLike()
	f := func(regs, ops, hashes uint8) bool {
		p := ActionProfile{RegisterAccesses: int(regs % 16), StatelessOps: int(ops % 16), Hashes: int(hashes % 16)}
		bigger := ActionProfile{p.RegisterAccesses + 1, p.StatelessOps + 1, p.Hashes + 1}
		return tgt.Hf(p) >= 0 && tgt.Hl(p) >= 0 &&
			tgt.Hf(bigger) > tgt.Hf(p) && tgt.Hl(bigger) > tgt.Hl(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
