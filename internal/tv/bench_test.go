package tv

import (
	"testing"

	"p4all/internal/apps"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// BenchmarkCertify measures one full validation (symbolic equivalence
// over every path plus the resource audit) of a solved compile, for the
// three programs of the benchmark's compile-certify workload (bench/):
// the standalone CMS at 0.25 Mb, SketchLearn and ConQuest at 1.75 Mb.
// Nothing gates on it: that workload's tv.validate_s, tv.paths and
// tv.us_per_path judge a change, and TestWarmPathAllocatesNothing pins
// the zero-allocation warm enumeration. It stays as the microscope to
// point -cpuprofile at, reporting `paths` and `us/path` beside ns/op.
func BenchmarkCertify(b *testing.B) {
	for _, p := range []struct {
		name, src string
		mem       int
	}{
		{"cms", modules.StandaloneCMS(), pisa.Mb / 4},
		{"sketchlearn", apps.SketchLearn().Source, 7 * pisa.Mb / 4},
		{"conquest", apps.ConQuest().Source, 7 * pisa.Mb / 4},
	} {
		b.Run(p.name, func(b *testing.B) {
			u, layout, prog := compileFor(b, p.src, pisa.EvalTarget(p.mem))
			b.ReportAllocs()
			b.ResetTimer()
			paths := 0
			for i := 0; i < b.N; i++ {
				cert := Validate(u, layout, prog, Options{Name: p.name})
				if !cert.Proved() {
					b.Fatalf("benchmark compile no longer certifies: %s", cert.Summary())
				}
				paths = cert.Equivalence.Paths
			}
			b.ReportMetric(float64(paths), "paths")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*paths), "us/path")
		})
	}
}
