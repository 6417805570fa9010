package multitenant

import (
	"testing"
)

// BenchmarkMultiTenantResolve measures the elastic-reallocation path
// through the Compiler's retained mix — the controller's
// reweight-on-drift scenario. Every timed re-solve reuses the mix's
// front ends and model and is seeded from its pooled starts.
//
// Both variants run the fairness figure's solver knobs (10% gap, 1000
// nodes, 15s): the elastic controller reads allocations off the
// incumbent, and proving the last few percent under utility floors is
// the branch-and-bound worst case — it would dominate the measurement
// without changing a single allocation.
//
//   - nudge: the common drift case, a pooled-root stop. The weight
//     moves but the previous root basis stays optimal, so the root LP
//     ends at it after one pricing pass, and the previous allocation
//     stays within the accepted gap, so the re-solve terminates at the
//     root on the warm incumbent — the millisecond reallocation claim.
//   - flip: the adversarial case. The weight change inverts which
//     tenant the objective favors, no pooled layout is near the new
//     optimum, the pooled root basis is not dual feasible under the new
//     weights and is rejected, and a real (bounded) tree search runs
//     from a cold root. Each iteration times the first flip away from
//     a fresh Compiler: alternating two weights on one Compiler would
//     time flips back, which the pooled predecessor ends at the root.
//
// Nothing gates on it: bench/'s tenant-drift workload runs the same
// knobs and is what judges a change (multitenant.nudge_s, flip_s and
// their node counts). This is the microscope `make bench-profile`
// points -cpuprofile at.
func BenchmarkMultiTenantResolve(b *testing.B) {
	resolve := func(b *testing.B, c *Compiler, w float64) {
		res, err := c.Compile(driftMix(w))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Layout.Stats.WarmStarted {
			b.Fatal("re-solve did not warm-start")
		}
	}
	b.Run("nudge", func(b *testing.B) {
		c := driftCompiler()
		if _, err := c.Compile(driftMix(2.5)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resolve(b, c, []float64{2, 2.5}[i%2])
		}
	})
	b.Run("flip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := driftCompiler()
			if _, err := c.Compile(driftMix(2)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			resolve(b, c, 0.5)
		}
	})
}
