// The factor's tests on bases of real models. External test package:
// the models come from ilpgen/apps, which import ilp; the checks
// themselves are in-package (factor_test.go, reached through
// export_test.go).
package ilp_test

import (
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// netCacheModel is NetCache on the evaluation target at 1.0 Mb a stage,
// the first compile-solve program.
func netCacheModel(t testing.TB) *ilp.Model {
	t.Helper()
	u, err := lang.ParseAndResolve(apps.NetCache(apps.NetCacheConfig{}).Source)
	if err != nil {
		t.Fatal(err)
	}
	target := pisa.EvalTarget(pisa.Mb)
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ilpgen.Generate(u, &target, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Model
}

// twoTenantModel is the CMS + KVS joint model of the tenant-drift
// workload (floors 2048, the 8-stage multi-tenant test target) with the
// KVS tenant weighted beta.
func twoTenantModel(t *testing.T, beta float64) *ilp.Model {
	t.Helper()
	target := pisa.Target{
		Name: "mt-test", Stages: 8, MemoryBits: 1 << 18,
		StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024,
	}
	var tus []ilpgen.TenantUnit
	for _, tn := range []struct{ name, src string }{
		{"alpha", modules.StandaloneCMS()},
		{"beta", modules.StandaloneKVS()},
	} {
		u, err := lang.ParseAndResolve(tn.src)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := unroll.UpperBounds(u, &target)
		if err != nil {
			t.Fatal(err)
		}
		tus = append(tus, ilpgen.TenantUnit{Name: tn.name, Unit: u, Bounds: bounds})
	}
	joint, err := ilpgen.GenerateJoint(tus, &target)
	if err != nil {
		t.Fatal(err)
	}
	if err := joint.SetObjective(ilpgen.Fairness{
		Weights:    []float64{1, beta},
		MinUtility: []float64{2048, 2048},
	}); err != nil {
		t.Fatal(err)
	}
	return joint.Model
}

func TestFactorOnNetCacheBases(t *testing.T) {
	ilp.CheckFactorOnModel(t, netCacheModel(t), 10)
}

func TestFactorOnTwoTenantBases(t *testing.T) {
	ilp.CheckFactorOnModel(t, twoTenantModel(t, 2), 10)
}

// TestInvariantChecksOnNetCache makes the solver's debug checks live:
// basic values inside their bounds and equal to a fresh recomputation
// at every refactorization, and every entering column's ftran
// reproducing the column through the basis, over the NetCache root LP, a
// dive and a short tree.
func TestInvariantChecksOnNetCache(t *testing.T) {
	ilp.SolveWithDebugChecks(t, netCacheModel(t))
}
