package ilpgen

import (
	"strings"
	"testing"
	"time"

	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// tenantUnit parses one source into a TenantUnit for joint tests.
func tenantUnit(t *testing.T, name, src string, target *pisa.Target) TenantUnit {
	t.Helper()
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	bounds, err := unroll.UpperBounds(u, target)
	if err != nil {
		t.Fatalf("bounds %s: %v", name, err)
	}
	return TenantUnit{Name: name, Unit: u, Bounds: bounds}
}

// jointTestTarget is deliberately small: few stages keep the joint
// placement binaries (and so branch-and-bound) manageable, because
// symmetric tenants plus utility floors are the solver's worst case.
func jointTestTarget(memBits int) pisa.Target {
	return pisa.Target{
		Name:          "joint-test",
		Stages:        4,
		MemoryBits:    memBits,
		StatefulALUs:  4,
		StatelessALUs: 16,
		PHVBits:       4096,
	}
}

func jointOpts() ilp.Options {
	return ilp.Options{Gap: 0.05, Deterministic: true, Threads: 2, NodeLimit: 5000, TimeLimit: 20 * time.Second}
}

func jointSolve(t *testing.T, tenants []TenantUnit, target *pisa.Target, f Fairness) (*Joint, *JointLayout) {
	t.Helper()
	j, err := GenerateJoint(tenants, target)
	if err != nil {
		t.Fatalf("GenerateJoint: %v", err)
	}
	if err := j.SetObjective(f); err != nil {
		t.Fatalf("SetObjective: %v", err)
	}
	jl, err := j.Solve(jointOpts())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return j, jl
}

// TestJointTwoTenants: two sketch tenants share one pipeline; with a
// minimum-allocation floor each, both are placed, per-tenant layouts
// validate individually, and the summed per-stage use respects the
// physical budgets. (Without floors a pure weighted sum over identical
// linear utilities legitimately picks a corner that starves one
// tenant — that behavior is covered by the weight-shift test below.)
func TestJointTwoTenants(t *testing.T) {
	target := jointTestTarget(128 * 1024)
	tenants := []TenantUnit{
		tenantUnit(t, "a", cmsSource, &target),
		tenantUnit(t, "b", cmsSource, &target),
	}
	floor := 4096.0
	j, jl := jointSolve(t, tenants, &target, Fairness{MinUtility: []float64{floor, floor}})
	if len(jl.Tenants) != 2 {
		t.Fatalf("got %d tenant layouts", len(jl.Tenants))
	}
	for i, l := range jl.Tenants {
		if l.Symbolics["rows"] < 1 || l.Symbolics["cols"] < 1 {
			t.Errorf("tenant %s: degenerate allocation %v", jl.Names[i], l.Symbolics)
		}
		AuditLayout(t, j.Tenants[i].Unit, l)
		if jl.Utilities[i] < floor-1e-6 {
			t.Errorf("tenant %s utility %g below floor %g", jl.Names[i], jl.Utilities[i], floor)
		}
	}
	for s, use := range jl.Stages {
		if use.MemoryBits > int64(target.MemoryBits) {
			t.Errorf("stage %d: joint memory %d over budget %d", s, use.MemoryBits, target.MemoryBits)
		}
		if use.Hf > target.StatefulALUs {
			t.Errorf("stage %d: joint Hf %d over %d", s, use.Hf, target.StatefulALUs)
		}
	}
	// The pipeline is shared: together the tenants cannot beat twice a
	// solo run, and memory contention must show up as each tenant
	// getting at most what it gets alone.
	_, solo := compile(t, cmsSource, target)
	if jl.Utilities[0] > solo.Objective+1e-6 || jl.Utilities[1] > solo.Objective+1e-6 {
		t.Errorf("joint tenant out-performed a solo compile: %v vs %g", jl.Utilities, solo.Objective)
	}
}

// TestJointGenerationDeterministic pins the multi-unit extension of
// the warm-start alignment guarantee (the PR 2 invariant): generating
// the same tenant list twice yields identical variable and constraint
// sequences, so a previous joint solution aligns index-for-index as a
// MIP start.
func TestJointGenerationDeterministic(t *testing.T) {
	target := jointTestTarget(128 * 1024)
	build := func() *Joint {
		j, err := GenerateJoint([]TenantUnit{
			tenantUnit(t, "a", cmsSource, &target),
			tenantUnit(t, "b", cmsSource, &target),
		}, &target)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.SetObjective(Fairness{Weights: []float64{0.7, 0.3}}); err != nil {
			t.Fatal(err)
		}
		return j
	}
	fingerprint := func(j *Joint) string {
		var b strings.Builder
		for v := 0; v < j.Model.NumVars(); v++ {
			b.WriteString(j.Model.VarName(ilp.Var(v)))
			b.WriteByte('\n')
		}
		j.Model.EachConstr(func(name string, _ []int32, _ []float64, _ ilp.Op, _ float64) {
			b.WriteString(name)
			b.WriteByte('\n')
		})
		obj, _ := j.Model.Objective()
		b.WriteString(obj.String())
		return b.String()
	}
	f1, f2 := fingerprint(build()), fingerprint(build())
	if f1 != f2 {
		t.Fatal("two generations of the same tenant mix differ")
	}
}

// TestJointZeroWeightDropped: a zero-weight tenant's variables must
// not appear in the objective at all — not even as zero-coefficient
// columns (the satellite-3 degenerate-column regression).
func TestJointZeroWeightDropped(t *testing.T) {
	target := jointTestTarget(128 * 1024)
	j, err := GenerateJoint([]TenantUnit{
		tenantUnit(t, "a", cmsSource, &target),
		tenantUnit(t, "b", cmsSource, &target),
	}, &target)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetObjective(Fairness{Weights: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	obj, _ := j.Model.Objective()
	if obj.Len() == 0 {
		t.Fatal("objective is empty")
	}
	obj.Terms(func(v ilp.Var, c float64) {
		name := j.Model.VarName(v)
		if strings.HasPrefix(name, "b/") {
			t.Errorf("zero-weight tenant variable %s in objective (coef %g)", name, c)
		}
		if c == 0 {
			t.Errorf("degenerate zero-coefficient column %s in objective", name)
		}
	})
	if _, err := j.Solve(ilp.Options{Gap: 0.03, Deterministic: true, Threads: 2}); err != nil {
		t.Fatalf("zero-weight joint solve: %v", err)
	}
}

// TestJointAllZeroWeightsRejected: an objective with nothing to
// maximize is a configuration error, not a silent no-op.
func TestJointAllZeroWeightsRejected(t *testing.T) {
	target := jointTestTarget(128 * 1024)
	j, err := GenerateJoint([]TenantUnit{
		tenantUnit(t, "a", cmsSource, &target),
	}, &target)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetObjective(Fairness{Weights: []float64{0}}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

// TestJointWeightShiftGrowsFavoredTenant: on a contended target,
// flipping the weights from favoring tenant a to favoring tenant b
// must strictly grow b and shrink a (the elastic reoptimization
// acceptance property). The weights are clearly asymmetric in both
// solves so each optimum is unique — no tie for the solver to break
// arbitrarily.
func TestJointWeightShiftGrowsFavoredTenant(t *testing.T) {
	target := jointTestTarget(48 * 1024) // tight memory: tenants compete
	mk := func() []TenantUnit {
		return []TenantUnit{
			tenantUnit(t, "a", cmsSource, &target),
			tenantUnit(t, "b", cmsSource, &target),
		}
	}
	_, aFav := jointSolve(t, mk(), &target, Fairness{Weights: []float64{1, 0.5}})
	_, bFav := jointSolve(t, mk(), &target, Fairness{Weights: []float64{0.5, 1}})
	// Utilities follow the tenant order: a, then b.
	if bFav.Utilities[1] <= aFav.Utilities[1] {
		t.Errorf("favored tenant b did not grow: before %g, after %g", aFav.Utilities[1], bFav.Utilities[1])
	}
	if bFav.Utilities[0] >= aFav.Utilities[0] {
		t.Errorf("de-weighted tenant a did not shrink: before %g, after %g", aFav.Utilities[0], bFav.Utilities[0])
	}
}

// TestJointMinUtilityFloor: the per-tenant minimum-allocation row
// binds even when the weights would starve the tenant.
func TestJointMinUtilityFloor(t *testing.T) {
	target := jointTestTarget(48 * 1024)
	tenants := []TenantUnit{
		tenantUnit(t, "a", cmsSource, &target),
		tenantUnit(t, "b", cmsSource, &target),
	}
	floor := 4096.0
	_, jl := jointSolve(t, tenants, &target, Fairness{
		Weights:    []float64{1, 0},
		MinUtility: []float64{0, floor},
	})
	if jl.Utilities[1] < floor-1e-6 {
		t.Errorf("tenant b utility %g below its floor %g", jl.Utilities[1], floor)
	}
}

// TestJointMaxMin: under max-min fairness two identical tenants end up
// (near-)balanced, where a skewed weighted sum would starve one.
func TestJointMaxMin(t *testing.T) {
	target := jointTestTarget(48 * 1024)
	tenants := []TenantUnit{
		tenantUnit(t, "a", cmsSource, &target),
		tenantUnit(t, "b", cmsSource, &target),
	}
	_, jl := jointSolve(t, tenants, &target, Fairness{MaxMin: true})
	lo, hi := jl.Utilities[0], jl.Utilities[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		t.Fatalf("max-min starved a tenant: %v", jl.Utilities)
	}
	// Identical programs, identical weights: the smaller side must be
	// within the solver gap (plus tiebreaker slack) of the larger.
	if lo < 0.8*hi {
		t.Errorf("max-min allocation unbalanced: %v", jl.Utilities)
	}
}

// TestJointWarmStartAlignment: a joint solution of the same tenant mix
// warm-starts a reweighted re-solve (the pool path of the elastic
// multi-tenant controller).
func TestJointWarmStartAlignment(t *testing.T) {
	target := jointTestTarget(48 * 1024)
	mk := func() []TenantUnit {
		return []TenantUnit{
			tenantUnit(t, "a", cmsSource, &target),
			tenantUnit(t, "b", cmsSource, &target),
		}
	}
	_, first := jointSolve(t, mk(), &target, Fairness{Weights: []float64{0.5, 0.5}})
	j2, err := GenerateJoint(mk(), &target)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.SetObjective(Fairness{Weights: []float64{0.2, 0.8}}); err != nil {
		t.Fatal(err)
	}
	o := jointOpts()
	o.Start = []ilp.Start{{Values: first.Values}}
	jl2, err := j2.Solve(o)
	if err != nil {
		t.Fatal(err)
	}
	// The previous joint solution must align index-for-index with the
	// regenerated model: a misaligned vector would error on length or
	// silently project infeasible and force a cold tree search. Accept
	// the one benign alternative — a root relaxation that is already
	// integral finishes before the start is ever consulted.
	if !jl2.Stats.WarmStarted && jl2.Stats.Nodes > 1 {
		t.Errorf("re-solve branched cold (%d nodes) instead of using the aligned joint start", jl2.Stats.Nodes)
	}
	for i, u := range jl2.Utilities {
		if u < -1e-6 {
			t.Errorf("tenant %s negative utility %g after warm re-solve", jl2.Names[i], u)
		}
	}
}
