package ilpgen_test

import (
	"testing"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/tv"
)

// The layouts this package's tests solve are held to tv.Audit, the one
// layout-legality check every certified compile runs. tv imports
// ilpgen, so only this external test package can call it; init hands
// it to the in-package tests.
func init() {
	ilpgen.AuditLayout = func(t testing.TB, u *lang.Unit, l *ilpgen.Layout) {
		t.Helper()
		for _, c := range tv.Audit(u, l).Checks {
			if !c.OK {
				t.Errorf("audit %s: %s\n%s", c.Name, c.Detail, l)
			}
		}
	}
}
