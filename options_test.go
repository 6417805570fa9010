package p4all_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryOptionFieldHasACaller guards the option surface: every
// exported field of a non-test struct under internal/ whose name ends in
// Options or Config must be set — as a composite-literal key or on the
// left of an assignment — by some non-test file other than the one that
// declares it. A knob only tests or its own package defaults touch is a
// constant or an unexported test seam, not an option. Fields match by
// name alone, which is loose on purpose: a name in use anywhere counts.
func TestEveryOptionFieldHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	setters := map[string]map[string]bool{} // field name -> files setting it
	type field struct{ file, owner, name string }
	var fields []field
	for _, root := range []string{".", "cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (root == "." || strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			set := func(name string) {
				if setters[name] == nil {
					setters[name] = map[string]bool{}
				}
				setters[name][path] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set(id.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set(sel.Sel.Name)
						}
					}
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					name := n.Name.Name
					if !ok || root != "internal" || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
						return true
					}
					owner := filepath.Base(filepath.Dir(path)) + "." + name
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{path, owner, id.Name})
							}
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no Options/Config fields under internal/")
	}
	var unset []string
	for _, f := range fields {
		caller := false
		for file := range setters[f.name] {
			if file != f.file {
				caller = true
				break
			}
		}
		if !caller {
			unset = append(unset, f.owner+"."+f.name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d option fields are set by no non-test file outside their own: make each a constant or an unexported test seam:\n\t%s",
			len(unset), len(fields), strings.Join(unset, "\n\t"))
	}
}
