package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"p4all/internal/ilpgen"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/tv"
)

// randomProgram composes 1-3 random library modules under one header
// and a random linear utility.
func randomProgram(rng *rand.Rand) string {
	kinds := []func(modules.Instance) string{
		modules.CountMinSketch,
		modules.BloomFilter,
		modules.KeyValueStore,
		modules.HashTable,
	}
	applies := []string{"%s_update", "%s_check", "%s_read", "%s_run"}
	params := [][2]string{
		{"%s_rows", "%s_cols"},
		{"%s_rows", "%s_bits"},
		{"%s_parts", "%s_slots"},
		{"%s_stages", "%s_slots"},
	}
	n := 1 + rng.Intn(3)
	frags := []string{modules.FlowHeader}
	apply := ""
	util := ""
	assumes := ""
	for i := 0; i < n; i++ {
		k := rng.Intn(len(kinds))
		prefix := fmt.Sprintf("m%d", i)
		inst := modules.Instance{Prefix: prefix, Key: "pkt.flow", Seed: i * 16}
		frags = append(frags, kinds[k](inst))
		apply += fmt.Sprintf("        %s.apply();\n", fmt.Sprintf(applies[k], prefix))
		if i > 0 {
			util += " + "
		}
		w := 0.1 + rng.Float64()
		count := fmt.Sprintf(params[k][0], prefix)
		cells := fmt.Sprintf(params[k][1], prefix)
		util += fmt.Sprintf("%.2f * (%s * %s)", w, count, cells)
		if rng.Intn(2) == 0 {
			assumes += fmt.Sprintf("assume %s <= %d;\n", count, 1+rng.Intn(4))
		}
		if rng.Intn(3) == 0 {
			assumes += fmt.Sprintf("assume %s >= %d;\n", cells, 16<<rng.Intn(4))
		}
	}
	frags = append(frags, fmt.Sprintf(`
control main {
    apply {
%s    }
}
%s
optimize %s;
`, apply, assumes, util))
	return modules.Compose(frags...)
}

func randomTarget(rng *rand.Rand) pisa.Target {
	return pisa.Target{
		Name:          "fuzz",
		Stages:        2 + rng.Intn(5),
		MemoryBits:    1 << (11 + rng.Intn(6)),
		StatefulALUs:  1 + rng.Intn(4),
		StatelessALUs: 2 + rng.Intn(15),
		PHVBits:       2048 + rng.Intn(4096),
		HashUnits:     rng.Intn(4), // 0 = unlimited
	}
}

// TestQuickRandomCompositionsCompile: every random composition either
// compiles to a layout that passes full physical validation, or fails
// with a well-typed error (infeasible) — never panics, never emits an
// invalid layout.
func TestQuickRandomCompositionsCompile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		tgt := randomTarget(rng)
		res, err := Compile(src, tgt, Options{SkipCodegen: true})
		if err != nil {
			if errors.Is(err, ilpgen.ErrInfeasible) {
				return true // cleanly infeasible: acceptable
			}
			t.Logf("seed %d: unexpected error %v\ntarget %+v", seed, err, tgt)
			return false
		}
		if audit := tv.Audit(res.Unit, res.Layout); audit.Failed() {
			t.Logf("seed %d: the layout fails the audit: %+v\ntarget %+v\n%s", seed, audit.Checks, tgt, res.Layout)
			return false
		}
		// Every symbolic must respect its assume bounds (the audit
		// checks them; spot-check values are non-negative).
		for name, v := range res.Layout.Symbolics {
			if v < 0 {
				t.Logf("seed %d: symbolic %s = %d negative", seed, name, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
