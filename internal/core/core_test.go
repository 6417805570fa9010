package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/tv"
	"p4all/internal/unroll"
)

func TestCompileEndToEnd(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	res, err := Compile(modules.StandaloneCMS(), tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout == nil || res.ILP == nil || res.Bounds == nil || res.Unit == nil {
		t.Fatal("incomplete result")
	}
	if res.P4 == "" {
		t.Error("codegen produced no output")
	}
	if res.Phases.Total() <= 0 {
		t.Error("phases not timed")
	}
	if audit := tv.Audit(res.Unit, res.Layout); audit.Failed() {
		t.Errorf("layout fails the audit: %+v", audit.Checks)
	}
}

func TestSkipCodegen(t *testing.T) {
	tgt := pisa.EvalTarget(pisa.Mb)
	res, err := Compile(modules.StandaloneCMS(), tgt, Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.P4 != "" {
		t.Error("SkipCodegen still generated code")
	}
	if res.Phases.Codegen != 0 {
		t.Error("codegen phase timed despite being skipped")
	}
}

func TestCompileFrontEndError(t *testing.T) {
	_, err := Compile("this is not p4all", pisa.EvalTarget(pisa.Mb), Options{})
	if err == nil || !strings.Contains(err.Error(), "front end") {
		t.Errorf("err = %v, want front end error", err)
	}
}

func TestCompileInvalidTarget(t *testing.T) {
	_, err := Compile(modules.StandaloneCMS(), pisa.Target{Name: "bad"}, Options{})
	if err == nil {
		t.Error("invalid target accepted")
	}
}

func TestCompileInfeasible(t *testing.T) {
	src := modules.StandaloneCMS() + "\nassume cms_rows >= 8;\n"
	_, err := Compile(src, pisa.RunningExampleTarget(), Options{})
	if !errors.Is(err, ilpgen.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestFixedPHVOverflowRejected: a program without elastic fields whose
// fixed header alone overflows the target's PHV does not compile. The
// check used to sit behind the elastic-field row it guards, so such a
// program compiled and only a certificate's audit caught it.
func TestFixedPHVOverflowRejected(t *testing.T) {
	src := `
header pkt { bit<64> a; }
action bump() { pkt.a = pkt.a + 1; }
control main { apply { bump(); } }
`
	tgt := pisa.Target{Name: "phv-32", Stages: 2, MemoryBits: 1024, StatefulALUs: 1, StatelessALUs: 4, PHVBits: 32}
	_, err := Compile(src, tgt, Options{SkipCodegen: true})
	if err == nil || !strings.Contains(err.Error(), "need 64 PHV bits, exceeding the 32 available") {
		t.Errorf("err = %v, want a fixed-PHV overflow", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Solver.Gap != 0.03 || o.Solver.NodeLimit != 4000 || o.Solver.TimeLimit != 90*time.Second {
		t.Errorf("defaults = %+v", o.Solver)
	}
	exact := Options{Solver: ilp.Options{Gap: -1}}.withDefaults()
	if exact.Solver.Gap != 0 {
		t.Errorf("negative gap should mean exact, got %g", exact.Solver.Gap)
	}
	custom := Options{Solver: ilp.Options{Gap: 0.1, NodeLimit: 7, TimeLimit: time.Second}}.withDefaults()
	if custom.Solver.Gap != 0.1 || custom.Solver.NodeLimit != 7 || custom.Solver.TimeLimit != time.Second {
		t.Errorf("explicit options overridden: %+v", custom.Solver)
	}
}

func TestCompileUnitReuse(t *testing.T) {
	// A compile must leave its resolved unit reusable: bounding and
	// solving the same unit again for another target must not see the
	// first compile's state.
	res1, err := Compile(modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb), Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := bound(res1.Unit, pisa.EvalTarget(2*pisa.Mb), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := compileUnit(bounded, Options{SkipCodegen: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Layout.Symbolic("cms_cols") < res1.Layout.Symbolic("cms_cols") {
		t.Errorf("doubling memory shrank cols: %d -> %d",
			res1.Layout.Symbolic("cms_cols"), res2.Layout.Symbolic("cms_cols"))
	}
}

// TestBoundsAttrsDeterministic: the bounds span lists its symbolics in
// the program's loop order and ends with the path-estimate count, so
// two traces of one compile diff clean.
func TestBoundsAttrsDeterministic(t *testing.T) {
	u, err := lang.ParseAndResolve(apps.SketchLearn().Source)
	if err != nil {
		t.Fatal(err)
	}
	tgt := pisa.EvalTarget(pisa.Mb)
	bounds, err := unroll.UpperBounds(u, &tgt)
	if err != nil {
		t.Fatal(err)
	}
	keys := func() string {
		var ks []string
		for _, a := range boundsAttrs(bounds) {
			ks = append(ks, a.Key)
		}
		return strings.Join(ks, " ")
	}
	first := keys()
	want := "bound.lv0_rows why.lv0_rows bound.lv1_rows why.lv1_rows bound.lv2_rows why.lv2_rows bound.lv3_rows why.lv3_rows path_estimates"
	if first != want {
		t.Fatalf("bounds attrs = %q, want %q", first, want)
	}
	for i := 0; i < 20; i++ {
		if again := keys(); again != first {
			t.Fatalf("bounds attrs differ between renderings: %q vs %q", first, again)
		}
	}
}
