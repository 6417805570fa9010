package p4all_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// TestValidatorReadsTheText keeps the translation validator's target
// side on the rendered P4 text: internal/tv's non-test files may use
// from internal/codegen only the program it renders, the renderer and
// the instance-naming convention the text is bound to the source by —
// no other type, field or function. Reading the program IR again would
// let a second evaluator of it grow back beside the one the text is
// run by.
func TestValidatorReadsTheText(t *testing.T) {
	const tvPkg, codegenPkg = "p4all/internal/tv", "p4all/internal/codegen"
	allowed := []string{"Concrete", "Render", "InstanceName"}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to list packages with: %v", err)
	}
	out, err := exec.Command(gobin, "list", "-export", "-deps", "-json", "./internal/tv").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	var tvFiles []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.ImportPath == tvPkg {
			for _, f := range p.GoFiles {
				tvFiles = append(tvFiles, filepath.Join(p.Dir, f))
			}
		}
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range tvFiles {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := conf.Check(tvPkg, fset, files, info); err != nil {
		t.Fatal(err)
	}
	for id, obj := range info.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() == codegenPkg && !slices.Contains(allowed, obj.Name()) {
			t.Errorf("%s: internal/tv uses codegen's %s; it may use only %v", fset.Position(id.Pos()), obj.Name(), allowed)
		}
	}
}
