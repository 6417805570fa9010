package p4all_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllowed names the declarations under internal/ that only tests
// reach and stay anyway, each with its reason. They are extra roots of
// the census, so what they call is kept with them.
var censusAllowed = map[string]string{
	"p4all/internal/lang.Print": "the parser's round-trip oracle",
}

// listedPackage is the part of `go list -json` the census reads.
type listedPackage struct {
	ImportPath  string
	Name        string
	Dir         string
	Standard    bool
	GoFiles     []string
	TestGoFiles []string
}

// TestEveryDeclarationIsReached is the reachability census: every
// package-level function, method, type, variable and constant under
// internal/ must be reached from a program, not only from tests. The
// roots are every main and init function, package-level var
// initializers, the exported names of the root p4all package, all of
// bench/ (tests included: they are the benchmark's own), and
// censusAllowed. A declaration reaches every package-level name and
// method its syntax uses. A method also counts as reached when its
// receiver type is reached and its name is a method of some interface
// the program or the standard library declares, since it may be called
// through that interface.
func TestEveryDeclarationIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports: skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to list packages with: %v", err)
	}
	var pkgs []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command(gobin, "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	// The census reads no cgo-only declaration, and the source importer
	// would otherwise run cgo on net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}

	deps := map[types.Object][]types.Object{}
	methods := map[*types.TypeName][]types.Object{}
	ifaceNames := map[string]bool{"Error": true}
	var roots, declared []types.Object
	for _, lp := range pkgs {
		names := lp.GoFiles
		if lp.ImportPath == "p4all/bench" {
			names = append(names, lp.TestGoFiles...)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addMethodNames(ifaceNames, it)
			}
		}

		internal := strings.HasPrefix(lp.ImportPath, "p4all/internal/")
		def := func(id *ast.Ident, uses []types.Object) types.Object {
			obj := info.Defs[id]
			if obj == nil {
				return nil
			}
			deps[obj] = uses
			fn, isFunc := obj.(*types.Func)
			entry := isFunc && fn.Type().(*types.Signature).Recv() == nil &&
				(id.Name == "init" || (id.Name == "main" && lp.Name == "main"))
			if entry || lp.ImportPath == "p4all/bench" || censusAllowed[objectName(obj)] != "" ||
				(lp.ImportPath == "p4all" && obj.Exported()) {
				roots = append(roots, obj)
			}
			if internal && !entry && id.Name != "_" {
				declared = append(declared, obj)
			}
			return obj
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := def(d.Name, usesOf(d, info)); obj != nil && d.Recv != nil {
						if tn := receiverType(obj); tn != nil {
							methods[tn] = append(methods[tn], obj)
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							def(s.Name, usesOf(s, info))
						case *ast.ValueSpec:
							uses := usesOf(s, info)
							if d.Tok == token.VAR && len(s.Values) > 0 {
								// The initializer runs whether or not
								// anything reads the variable.
								roots = append(roots, uses...)
							}
							for _, id := range s.Names {
								def(id, uses)
							}
						}
					}
				}
			}
		}
	}
	visited := map[*types.Package]bool{}
	for _, pkg := range checked {
		for _, p := range allImports(pkg, visited) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addMethodNames(ifaceNames, it)
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	work := roots
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, deps[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] {
					work = append(work, m)
				}
			}
		}
	}
	for name := range censusAllowed {
		found := false
		for _, obj := range roots {
			found = found || objectName(obj) == name
		}
		if !found {
			t.Errorf("censusAllowed names %s, which is not declared", name)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, obj := range declared {
		if !reached[obj] {
			pos := fset.Position(obj.Pos())
			rel, err := filepath.Rel(wd, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			unreached = append(unreached, fmt.Sprintf("%s:%d: %s", rel, pos.Line, strings.ReplaceAll(objectName(obj), "p4all/internal/", "")))
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d of %d declarations under internal/ are reached only from tests (or not at all): delete them, or call what they wrap directly:\n\t%s",
			len(unreached), len(declared), strings.Join(unreached, "\n\t"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// usesOf lists the package-level objects and concrete methods of this
// module that n's syntax refers to.
func usesOf(n ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "p4all") {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if o.Type().(*types.Signature).Recv() != nil {
				if receiverType(obj) != nil {
					out = append(out, obj)
				}
				return true
			}
		case *types.Var:
			if o.IsField() {
				return true
			}
		case *types.TypeName, *types.Const:
		default:
			return true
		}
		if obj.Parent() == obj.Pkg().Scope() {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// receiverType is the named type a concrete method is declared on (nil
// for an interface method).
func receiverType(obj types.Object) *types.TypeName {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if n, ok := rt.(*types.Named); ok {
		if _, iface := n.Underlying().(*types.Interface); !iface {
			return n.Origin().Obj()
		}
	}
	return nil
}

func addMethodNames(names map[string]bool, it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		names[it.Method(i).Name()] = true
	}
}

func allImports(p *types.Package, seen map[*types.Package]bool) []*types.Package {
	if seen[p] {
		return nil
	}
	seen[p] = true
	out := []*types.Package{p}
	for _, q := range p.Imports() {
		out = append(out, allImports(q, seen)...)
	}
	return out
}

// objectName is a declaration's census name: FullName for functions and
// methods ("(*p4all/internal/ilpgen.Layout).Validate"), path.Name
// otherwise.
func objectName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return f.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
