package sim

import (
	"testing"

	"p4all/internal/core"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/structures"
	"p4all/internal/workload"
)

// compileCMS compiles the library CMS module for a small target and
// returns an executable pipeline.
func compileCMS(t *testing.T) (*core.Result, *Pipeline) {
	t.Helper()
	tgt := pisa.Target{
		Name: "sim-test", Stages: 6, MemoryBits: 1 << 15,
		StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096,
	}
	res, err := core.Compile(modules.StandaloneCMS(), tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return res, p
}

func TestCompiledCMSMatchesBehavioralReference(t *testing.T) {
	res, pipe := compileCMS(t)
	rows := int(res.Layout.Symbolic("cms_rows"))
	cols := int(res.Layout.Symbolic("cms_cols"))
	if rows < 1 || cols < 1 {
		t.Fatalf("degenerate layout rows=%d cols=%d", rows, cols)
	}
	ref, err := structures.NewCountMinSketch(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.ZipfKeys(11, 500, 1.1, 4000)
	for i, k := range keys {
		out, err := pipe.Process(Packet{{"pkt.flow", k}})
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		want := uint64(ref.Update(k))
		got, ok := Meta(out, "cms_meta.min", -1)
		if !ok {
			t.Fatalf("packet %d: cms_meta.min missing from %v", i, out)
		}
		if got != want {
			t.Fatalf("packet %d key %d: compiled estimate %d, reference %d (rows=%d cols=%d)",
				i, k, got, want, rows, cols)
		}
	}
}

func TestCompiledCMSNeverUnderestimates(t *testing.T) {
	_, pipe := compileCMS(t)
	truth := map[uint64]uint64{}
	keys := workload.ZipfKeys(3, 200, 1.0, 3000)
	var lastEst = map[uint64]uint64{}
	for _, k := range keys {
		out, err := pipe.Process(Packet{{"pkt.flow", k}})
		if err != nil {
			t.Fatal(err)
		}
		truth[k]++
		est, _ := Meta(out, "cms_meta.min", -1)
		lastEst[k] = est
	}
	for k, want := range truth {
		if lastEst[k] < want {
			t.Errorf("key %d: estimate %d below true count %d", k, lastEst[k], want)
		}
	}
}

func TestRegisterStateVisible(t *testing.T) {
	res, pipe := compileCMS(t)
	if _, err := pipe.Process(Packet{{"pkt.flow", 42}}); err != nil {
		t.Fatal(err)
	}
	rows := int(res.Layout.Symbolic("cms_rows"))
	nonzero := 0
	for r := 0; r < rows; r++ {
		store, ok := pipe.Register("cms_sketch", r)
		if !ok {
			t.Fatalf("register cms_sketch/%d missing", r)
		}
		for _, v := range store {
			if v != 0 {
				nonzero++
			}
		}
	}
	if nonzero != rows {
		t.Errorf("expected exactly one touched cell per row (%d), got %d", rows, nonzero)
	}
	if _, ok := pipe.Register("cms_sketch", 99); ok {
		t.Error("out-of-range register instance returned")
	}
	if _, ok := pipe.Register("nonexistent", 0); ok {
		t.Error("unknown register returned")
	}
}

func TestCompiledBloomFilter(t *testing.T) {
	tgt := pisa.Target{
		Name: "sim-bloom", Stages: 6, MemoryBits: 1 << 14,
		StatefulALUs: 2, StatelessALUs: 8, PHVBits: 4096,
	}
	res, err := core.Compile(modules.StandaloneBloom(), tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Layout.Symbolic("bf_rows")
	// First sighting of a key: hits < rows. Second: hits == rows.
	out1, err := pipe.Process(Packet{{"pkt.flow", 77}})
	if err != nil {
		t.Fatal(err)
	}
	hits1, _ := Meta(out1, "bf_meta.hits", -1)
	out2, err := pipe.Process(Packet{{"pkt.flow", 77}})
	if err != nil {
		t.Fatal(err)
	}
	hits2, _ := Meta(out2, "bf_meta.hits", -1)
	if hits1 == uint64(rows) {
		t.Errorf("fresh key already fully present (hits=%d rows=%d)", hits1, rows)
	}
	if hits2 != uint64(rows) {
		t.Errorf("repeated key not fully present (hits=%d rows=%d)", hits2, rows)
	}
}

func TestDivisionByZeroReported(t *testing.T) {
	src := `
header pkt { bit<32> flow; }
struct meta { bit<32> x; }
action bad() { meta.x = pkt.flow / meta.x; }
control main { apply { bad(); } }
`
	tgt := pisa.RunningExampleTarget()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Process(Packet{{"pkt.flow", 5}}); err == nil {
		t.Error("division by zero not reported")
	}
}

func TestWidthMasking(t *testing.T) {
	src := `
header pkt { bit<32> flow; }
struct meta { bit<8> small; }
action wrap() { meta.small = pkt.flow + 250; }
control main { apply { wrap(); } }
`
	tgt := pisa.RunningExampleTarget()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Process(Packet{{"pkt.flow", 10}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Meta(out, "meta.small", -1); v != (10+250)%256 {
		t.Errorf("meta.small = %d, want %d (8-bit wrap)", v, (10+250)%256)
	}
}

// TestGuardedExecution runs guarded invocations, an if and an if/else,
// on the interpreter and certifies each compile: the else branch runs
// exactly when the if's condition is false.
func TestGuardedExecution(t *testing.T) {
	for _, c := range []struct {
		name, src, in, out string
		want               map[uint64]uint64 // input value -> output value
	}{
		{"if", `
header pkt { bit<32> flow; }
struct meta { bit<32> marked; }
action mark() { meta.marked = 1; }
control main {
    apply {
        if (pkt.flow > 100) {
            mark();
        }
    }
}
`, "pkt.flow", "meta.marked", map[uint64]uint64{50: 0, 150: 1}},
		{"if-else", `
header pkt { bit<32> a; }
struct meta { bit<32> r; }
action yes() { meta.r = 1; }
action no() { meta.r = 2; }
control main { apply { if (pkt.a == 1) { yes(); } else { no(); } } }
`, "pkt.a", "meta.r", map[uint64]uint64{1: 1, 5: 2}},
	} {
		res, err := core.Compile(c.src, pisa.RunningExampleTarget(), core.Options{Name: c.name, Certify: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !res.Certificate.Proved() {
			t.Errorf("%s: %s", c.name, res.Certificate.Summary())
		}
		pipe, err := New(res.Unit, res.Layout)
		if err != nil {
			t.Fatal(err)
		}
		for in, want := range c.want {
			out, err := pipe.Process(Packet{{c.in, in}})
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := Meta(out, c.out, -1); v != want {
				t.Errorf("%s: %s = %d gives %s = %d, want %d", c.name, c.in, in, c.out, v, want)
			}
		}
	}
}

func TestMetaResetBetweenPackets(t *testing.T) {
	_, pipe := compileCMS(t)
	out1, err := pipe.Process(Packet{{"pkt.flow", 1}})
	if err != nil {
		t.Fatal(err)
	}
	est1, _ := Meta(out1, "cms_meta.min", -1)
	// A different key's estimate must not inherit key 1's metadata.
	out2, err := pipe.Process(Packet{{"pkt.flow", 2}})
	if err != nil {
		t.Fatal(err)
	}
	est2, _ := Meta(out2, "cms_meta.min", -1)
	if est1 != 1 || est2 != 1 {
		t.Errorf("fresh keys should estimate 1, got %d and %d", est1, est2)
	}
}

func TestUnknownHeaderFieldRejected(t *testing.T) {
	_, pipe := compileCMS(t)
	// Missing header value reads as zero (packets always carry all
	// parsed fields in PISA; absent map keys model zeroed fields).
	if _, err := pipe.Process(Packet{}); err != nil {
		t.Fatalf("empty packet should process with zeroed fields: %v", err)
	}
}

func TestModuloByZeroReported(t *testing.T) {
	src := `
header pkt { bit<32> flow; }
struct meta { bit<32> x; bit<32> y; }
action bad() { meta.x = pkt.flow % meta.y; }
control main { apply { bad(); } }
`
	tgt := pisa.RunningExampleTarget()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Process(Packet{{"pkt.flow", 5}}); err == nil {
		t.Error("modulo by zero not reported")
	}
}

func TestMinMaxBuiltins(t *testing.T) {
	src := `
header pkt { bit<32> a; bit<32> b; }
struct meta { bit<32> lo; bit<32> hi; }
action pick() { meta.lo = min(pkt.a, pkt.b); meta.hi = max(pkt.a, pkt.b); }
control main { apply { pick(); } }
`
	tgt := pisa.RunningExampleTarget()
	res, err := core.Compile(src, tgt, core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Process(Packet{{"pkt.a", 9}, {"pkt.b", 4}})
	if err != nil {
		t.Fatal(err)
	}
	if lo, _ := Meta(out, "meta.lo", -1); lo != 4 {
		t.Errorf("min = %d, want 4", lo)
	}
	if hi, _ := Meta(out, "meta.hi", -1); hi != 9 {
		t.Errorf("max = %d, want 9", hi)
	}
}
