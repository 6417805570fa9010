package p4all_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"slices"
	"testing"
)

// TestOneEvaluator holds the boundary that keeps the P4All semantics
// written once: the reference interpreter (internal/sim) and the
// translation validator (internal/tv) both import the one walker
// (internal/sem), and neither depends on the other, so neither can
// grow an evaluator of its own that the other does not run.
func TestOneEvaluator(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to list packages with: %v", err)
	}
	const simPkg, tvPkg, semPkg = "p4all/internal/sim", "p4all/internal/tv", "p4all/internal/sem"
	out, err := exec.Command(gobin, "list", "-deps", "-json", "./internal/sim", "./internal/tv").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath string
		Imports    []string
		Deps       []string
	}
	pkgs := map[string]listed{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = p
	}
	for _, c := range []struct{ pkg, other string }{{simPkg, tvPkg}, {tvPkg, simPkg}} {
		p, ok := pkgs[c.pkg]
		if !ok {
			t.Fatalf("go list did not report %s", c.pkg)
		}
		if slices.Contains(p.Deps, c.other) {
			t.Errorf("%s depends on %s", c.pkg, c.other)
		}
		if !slices.Contains(p.Imports, semPkg) {
			t.Errorf("%s does not import %s", c.pkg, semPkg)
		}
	}
}
