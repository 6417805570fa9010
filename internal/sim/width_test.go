package sim

import (
	"testing"

	"p4all/internal/core"
	"p4all/internal/pisa"
)

// compileSrc compiles an inline program against the running-example
// target and returns an executable pipeline.
func compileSrc(t *testing.T, src string) *Pipeline {
	t.Helper()
	res, err := core.Compile(src, pisa.RunningExampleTarget(), core.Options{SkipCodegen: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pipe, err := New(res.Unit, res.Layout)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// widthCases pin the bit<W> wrap semantics the generated P4 imposes:
// intermediates wrap at the combined operand width, not at 64 bits.
// Each case diverged from hardware before the evaluator carried widths
// through expressions (it once masked only at assignment). The
// sources double as engine-oracle corpus entries (vm_test.go).
var widthCases = []struct {
	name  string
	src   string
	pkt   Packet
	field string
	want  uint64
}{
	{
		// bit<8>: 5 - 10 wraps to 251, so the guard must fire.
		// At 64 bits the difference is ~2^64 and the guard stays
		// closed.
		name: "subtract underflow in guard",
		src: `
header pkt { bit<8> a; }
struct meta { bit<32> hit; }
action h() { meta.hit = 1; }
control main { apply { if (pkt.a - 10 < 300) { h(); } } }
`,
		pkt:   Packet{{"pkt.a", 5}},
		field: "meta.hit",
		want:  1,
	},
	{
		// bit<16>: 400*400 = 160000 wraps to 28928 before the
		// wider destination sees it. A 64-bit intermediate would
		// store 160000.
		name: "multiply wraps before widening assignment",
		src: `
header pkt { bit<16> a; bit<16> b; }
struct meta { bit<32> prod; }
action m() { meta.prod = pkt.a * pkt.b; }
control main { apply { m(); } }
`,
		pkt:   Packet{{"pkt.a", 400}, {"pkt.b", 400}},
		field: "meta.prod",
		want:  (400 * 400) % (1 << 16),
	},
	{
		// bit<64> fields must not be masked at all: 0 - 1 is the
		// all-ones word.
		name: "width-64 subtract underflow keeps full word",
		src: `
header pkt { bit<64> a; }
struct meta { bit<64> x; }
action s() { meta.x = pkt.a - 1; }
control main { apply { s(); } }
`,
		pkt:   Packet{{"pkt.a", 0}},
		field: "meta.x",
		want:  ^uint64(0),
	},
	{
		// Unary minus wraps at the operand's width, not the
		// destination's.
		name: "unary minus wraps at operand width",
		src: `
header pkt { bit<8> a; }
struct meta { bit<32> x; }
action n() { meta.x = -pkt.a; }
control main { apply { n(); } }
`,
		pkt:   Packet{{"pkt.a", 1}},
		field: "meta.x",
		want:  255,
	},
	{
		// Pure-literal arithmetic is unconstrained until it lands
		// in a field; the bit<64> destination keeps every bit.
		name: "literal arithmetic constrained only by destination",
		src: `
header pkt { bit<32> a; }
struct meta { bit<64> x; }
action l() { meta.x = 0 - 1; }
control main { apply { l(); } }
`,
		pkt:   Packet{{"pkt.a", 0}},
		field: "meta.x",
		want:  ^uint64(0),
	},
	{
		// Header loads truncate oversized injected values to the
		// declared field width.
		name: "header load masks to declared width",
		src: `
header pkt { bit<8> a; }
struct meta { bit<32> x; }
action c() { meta.x = pkt.a; }
control main { apply { c(); } }
`,
		pkt:   Packet{{"pkt.a", 0x1FF}},
		field: "meta.x",
		want:  0xFF,
	},
}

func TestArithmeticWrapsAtOperandWidth(t *testing.T) {
	for _, c := range widthCases {
		t.Run(c.name, func(t *testing.T) {
			pipe := compileSrc(t, c.src)
			out, err := pipe.Process(c.pkt)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := Meta(out, c.field, -1)
			if !ok {
				t.Fatalf("%s missing from %v", c.field, out)
			}
			if got != c.want {
				t.Errorf("%s = %d, want %d", c.field, got, c.want)
			}
		})
	}
}
