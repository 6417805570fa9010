package multitenant

import (
	"testing"
	"time"

	"p4all/internal/ilp"
)

// BenchmarkMultiTenantResolve measures the elastic-reallocation path
// through the Compiler's warm-start pool — the controller's
// reweight-on-drift scenario.
//
// Both variants run the fairness figure's solver knobs (10% gap, 1000
// nodes, 15s): the elastic controller reads allocations off the
// incumbent, and proving the last few percent under utility floors is
// the branch-and-bound worst case — it would dominate the measurement
// without changing a single allocation.
//
//   - nudge: the common drift case. The weight moves but the previous
//     allocation stays within the accepted gap, so the re-solve
//     terminates at the root on the warm incumbent — the sub-second
//     reallocation claim.
//   - flip: the adversarial case. The weight change inverts which
//     tenant the objective favors, the warm incumbent is far from the
//     new optimum, and a real (bounded) tree search runs.
//
// Nothing gates on it: bench/'s tenant-drift workload runs the same
// knobs and is what judges a change (multitenant.nudge_s, flip_s and
// their node counts). This is the microscope `make bench-profile`
// points -cpuprofile at.
func BenchmarkMultiTenantResolve(b *testing.B) {
	mix := func(w float64) []Tenant {
		ts := smallMix()
		ts[0].MinUtility = 2048
		ts[1].MinUtility = 2048
		ts[1].Weight = w
		return ts
	}
	newCompiler := func() *Compiler {
		return NewCompiler(mtTarget(), Options{
			Solver: ilp.Options{
				Deterministic: true,
				Gap:           0.1,
				NodeLimit:     1000,
				TimeLimit:     15 * time.Second,
			},
			SkipCodegen: true,
		})
	}
	run := func(b *testing.B, weights []float64) {
		c := newCompiler()
		if _, err := c.Compile(mix(weights[len(weights)-1])); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.Compile(mix(weights[i%len(weights)]))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Layout.Stats.WarmStarted {
				b.Fatal("re-solve did not warm-start")
			}
		}
	}
	b.Run("nudge", func(b *testing.B) { run(b, []float64{2, 2.5}) })
	b.Run("flip", func(b *testing.B) { run(b, []float64{2, 0.5}) })
}
