package p4all_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestIterationIsBoundOnce keeps the iteration a decision of the
// resolver alone: it binds every reference (lang.Ref.Iter and Inst),
// and no non-test file outside internal/lang may read an action's
// IndexParam to decide again which names are the iteration or which
// instance a reference selects. A reader that stays is listed here by
// function: guardedReduction substitutes the parameter to compare an
// action's body with its call site's guard as text.
func TestIterationIsBoundOnce(t *testing.T) {
	allowed := []string{"dep.guardedReduction"}
	fset := token.NewFileSet()
	for _, root := range []string{".", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (root == "." || strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("internal", "lang")) {
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
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				reader := f.Name.Name + "." + fn.Name.Name
				ast.Inspect(fn, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "IndexParam" && !slices.Contains(allowed, reader) {
						t.Errorf("%s: %s reads IndexParam; read the resolver's binding (lang.Ref.Iter, Ref.Inst) instead", fset.Position(sel.Pos()), reader)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
