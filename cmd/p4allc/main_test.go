package main

import (
	"os"
	"path/filepath"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

func TestResolveTargetBuiltins(t *testing.T) {
	cases := map[string]int{"eval": 10, "running-example": 3, "tofino": 12, "Tofino-Like": 12}
	for spec, stages := range cases {
		tgt, err := resolveTarget(spec, 0)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if tgt.Stages != stages {
			t.Errorf("%s: stages = %d, want %d", spec, tgt.Stages, stages)
		}
	}
}

func TestResolveTargetMemOverride(t *testing.T) {
	tgt, err := resolveTarget("eval", 12345)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.MemoryBits != 12345 {
		t.Errorf("MemoryBits = %d, want override 12345", tgt.MemoryBits)
	}
}

func TestResolveTargetJSONFile(t *testing.T) {
	spec := pisa.TofinoLike()
	data, err := spec.MarshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "target.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tgt, err := resolveTarget(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Stages != spec.Stages || tgt.HashUnits != spec.HashUnits {
		t.Errorf("loaded target mismatch: %+v", tgt)
	}
}

func TestResolveTargetMissing(t *testing.T) {
	if _, err := resolveTarget("/no/such/spec.json", 0); err == nil {
		t.Error("missing spec accepted")
	}
}

// TestFlowRadarCertifiesOnDefaultTarget: `p4allc -app flowradar
// -certify` used to exit 1 — three counting-table registers share each
// stage's memory, the layout recorded the LP's fractional share per
// register instead of cells x width, and the validator's register-shape
// audit rejected it.
func TestFlowRadarCertifiesOnDefaultTarget(t *testing.T) {
	target, err := resolveTarget("eval", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(apps.FlowRadar().Source, target, core.Options{Certify: true, Name: "FlowRadar"})
	if err != nil {
		t.Fatal(err)
	}
	if cert := res.Certificate; !cert.Proved() {
		t.Errorf("%s", cert.Summary())
		for _, c := range cert.Audit.Checks {
			if !c.OK {
				t.Errorf("audit %s: %s", c.Name, c.Detail)
			}
		}
	}
}

// TestUnrollStatsLine: -stats says why each loop symbolic got its
// bound, in program order, and how many path criteria were estimated.
func TestUnrollStatsLine(t *testing.T) {
	target, err := resolveTarget("eval", 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := lang.ParseAndResolve(apps.NetCache(apps.NetCacheConfig{}).Source)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	want := "unroll: cms_rows <= 4 (assume, 4 graphs); kv_parts <= 9 (path, 10 graphs); path_estimates=0"
	if got := unrollStats("unroll", bounds); got != want {
		t.Errorf("unrollStats = %q, want %q", got, want)
	}
}
