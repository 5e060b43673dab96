package humancomp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are exported method names a type declares to satisfy
// a standard-library interface — sort.Interface, heap.Interface,
// errors.Unwrap's, fmt.Stringer, json.Marshaler and Unmarshaler,
// http.RoundTripper, slog.Handler — which the library calls through a
// conversion the scan does not follow, not this module.
var interfaceMethods = map[string]bool{
	"Less": true, "Swap": true, "Push": true, "Pop": true, "Unwrap": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "RoundTrip": true, "WithGroup": true,
}

// goPackage is the part of `go list -json` the export scan reads.
type goPackage struct {
	ImportPath, Name, Dir, Export string
	Standard                      bool
	GoFiles, Imports              []string
	TestImports, XTestImports     []string
}

// TestEveryExportHasAProductionCaller fails on each exported declaration
// of a non-test file — a top-level type, function, variable or constant,
// or a method — that no non-test file of the module (bench/ and cmd/
// included) references. Code only tests reach belongs in the test that
// uses it; the examples under examples/ are tests too. The packages are
// type-checked, so a use names one object, not every declaration that
// shares its name.
//
// A package only tests import is not scanned, so it also fails when any
// package but testOnlyPackages becomes one: code only an example or a
// test imports would otherwise escape the scan whole.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	out, err := exec.Command("go", "list", "-e", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p goPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	unused, testOnly, err := unreferencedExports(pkgs, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(testOnly, testOnlyPackages) {
		t.Errorf("packages only tests import: %v, want %v; fold a new one into the test that uses it, or give it a production caller",
			testOnly, testOnlyPackages)
	}
	for i, u := range unused {
		if rel, err := filepath.Rel(wd, u); err == nil {
			unused[i] = rel
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported declarations have no caller outside tests; delete each, or move it into the test that uses it:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// testOnlyPackages are the module's packages that only tests import: the
// fault injectors the crash and failover tests wrap around a node's files
// and links.
var testOnlyPackages = []string{"humancomp/internal/faultinject"}

// unreferencedExports type-checks the non-standard packages of pkgs, which
// are in dependency order as `go list -deps` prints them, and returns
// "file:line: kind name" for each exported declaration no non-test file
// uses, and the import paths of the test-support packages it skipped. A
// use counts when:
//   - it names the declared object, or an instantiation of it;
//   - it is not in the receiver of one of the object's own methods;
//   - for a method, it names an interface method the method implements,
//     or the method is a standard-library hook in interfaceMethods.
//
// A package no non-test file imports but a test does is test support: it
// is neither scanned nor counted as a user. Standard packages are imported
// from their export data.
func unreferencedExports(pkgs []goPackage, readFile func(string) ([]byte, error)) (unused, testOnly []string, err error) {
	fset := token.NewFileSet()
	exportData := map[string]string{}
	imported, testImported := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		exportData[p.ImportPath] = p.Export
		for _, i := range p.Imports {
			imported[i] = true
		}
		for _, i := range append(p.TestImports, p.XTestImports...) {
			testImported[i] = true
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportData[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	declared := map[types.Object]string{}
	used := map[types.Object]bool{}
	ifaceMethods := map[*types.Func]bool{}
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Name != "main" && !imported[p.ImportPath] && testImported[p.ImportPath] {
			testOnly = append(testOnly, p.ImportPath)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			src, err := readFile(path)
			if err != nil {
				return nil, nil, err
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg

		receiver := map[*ast.Ident]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiver[id] = true
							}
							return true
						})
					}
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						declared[info.Defs[d.Name]] = "func " + d.Name.Name
					default:
						recv := types.ExprString(d.Recv.List[0].Type)
						declared[info.Defs[d.Name]] = fmt.Sprintf("method (%s).%s", recv, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								declared[info.Defs[s.Name]] = "type " + s.Name.Name
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									declared[info.Defs[n]] = d.Tok.String() + " " + n.Name
								}
							}
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			if receiver[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				obj = fn
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn] = true
				}
			}
			used[obj] = true
		}
	}

	for obj, what := range declared {
		if used[obj] || implementsUsed(obj, ifaceMethods) {
			continue
		}
		pos := fset.Position(obj.Pos())
		unused = append(unused, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, what))
	}
	sort.Strings(unused)
	sort.Strings(testOnly)
	return unused, testOnly, nil
}

// implementsUsed reports whether obj is a method that a used interface
// method, or a standard-library hook, dispatches to.
func implementsUsed(obj types.Object, ifaceMethods map[*types.Func]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if interfaceMethods[fn.Name()] {
		return true
	}
	for m := range ifaceMethods {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestUnreferencedExportsRules runs the scan over small in-memory modules,
// one rule a case. Each package is one file, x.go, in the directory named
// by its import path; the main package last, since the packages are given
// in dependency order.
func TestUnreferencedExportsRules(t *testing.T) {
	type pkg struct {
		path, src            string
		imports, testImports []string
	}
	mainUses := func(body string, imports ...string) pkg {
		src := "package main\n\nimport (\n"
		for _, i := range imports {
			src += fmt.Sprintf("\t%q\n", i)
		}
		return pkg{path: "m/cmd", src: src + ")\n\nfunc main() {\n" + body + "\n}\n", imports: imports}
	}
	for _, tc := range []struct {
		name           string
		pkgs           []pkg
		want, testOnly []string
	}{
		{
			name: "an export nothing references",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n"},
				mainUses("a.Used()", "m/a"),
			},
			want: []string{"m/a/x.go:5: func Unused"},
		},
		{
			name: "a method name another type's live method shares",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\ntype U struct{}\n\nfunc (U) M() {}\n"},
				mainUses("a.T{}.M()\n_ = a.U{}", "m/a"),
			},
			want: []string{"m/a/x.go:9: method (U).M"},
		},
		{
			name: "a generic method called on an instantiation",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\ntype Box[T any] struct{ v T }\n\nfunc (b *Box[T]) Get() T { return b.v }\n"},
				mainUses("b := &a.Box[int]{}\n_ = b.Get()", "m/a"),
			},
		},
		{
			name: "a method called through an interface",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\ntype Getter interface{ Get() int }\n\ntype T struct{}\n\nfunc (T) Get() int { return 1 }\n\nfunc New() Getter { return T{} }\n"},
				mainUses("_ = a.New().Get()", "m/a"),
			},
		},
		{
			name: "a standard-library hook",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\ntype S []int\n\nfunc (s S) Len() int { return len(s) }\n\nfunc (s S) Less(i, j int) bool { return s[i] < s[j] }\n"},
				mainUses("_ = a.S{}.Len()", "m/a"),
			},
		},
		{
			name: "a type only its own methods' receivers name",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\ntype Dead struct{}\n\nfunc (d *Dead) Live() {}\n\nfunc (d *Dead) helper() {}\n\nfunc Used() {}\n"},
				mainUses("a.Used()", "m/a"),
			},
			want: []string{"m/a/x.go:3: type Dead", "m/a/x.go:5: method (*Dead).Live"},
		},
		{
			name: "a package only tests import",
			pkgs: []pkg{
				{path: "m/support", src: "package support\n\nfunc Helper() {}\n"},
				{path: "m/a", src: "package a\n\nfunc Used() {}\n", testImports: []string{"m/support"}},
				mainUses("a.Used()", "m/a"),
			},
			testOnly: []string{"m/support"},
		},
		{
			name: "a package production and tests both import",
			pkgs: []pkg{
				{path: "m/a", src: "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n"},
				{path: "m/b", src: "package b\n\nfunc Used() {}\n", testImports: []string{"m/a"}},
				mainUses("a.Used()\nb.Used()", "m/a", "m/b"),
			},
			want: []string{"m/a/x.go:5: func Unused"},
		},
		{
			// An example is a test file, so its package has no files the
			// scan reads and what it alone imports is test support.
			name: "a package only an example imports",
			pkgs: []pkg{
				{path: "m/shown", src: "package shown\n\nfunc Shown() {}\n"},
				{path: "m/examples/demo", testImports: []string{"m/shown"}},
				mainUses(""),
			},
			testOnly: []string{"m/shown"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string][]byte{}
			var pkgs []goPackage
			for _, p := range tc.pkgs {
				gp := goPackage{ImportPath: p.path, Dir: p.path, Imports: p.imports, TestImports: p.testImports}
				if p.src != "" { // no src: a package of test files only
					files[filepath.Join(p.path, "x.go")] = []byte(p.src)
					gp.Name, gp.GoFiles = strings.Fields(p.src)[1], []string{"x.go"}
				}
				pkgs = append(pkgs, gp)
			}
			got, testOnly, err := unreferencedExports(pkgs, func(path string) ([]byte, error) { return files[path], nil })
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("unreferenced:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
			if !slices.Equal(testOnly, tc.testOnly) {
				t.Errorf("test-only packages %v, want %v", testOnly, tc.testOnly)
			}
		})
	}
}
