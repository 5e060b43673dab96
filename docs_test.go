package humancomp_test

import (
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeListsEveryRoute fails on each route the dispatch server mounts
// that README's route tables leave out.
func TestReadmeListsEveryRoute(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "dispatch", "server.go"))
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	mounted := regexp.MustCompile(`(?:route|routeIdem|serve|mount|HandleFunc)\("([A-Z]+ /[^"]*)"`).FindAllStringSubmatch(string(src), -1)
	if len(mounted) == 0 {
		t.Fatal("no routes found in server.go")
	}
	for _, m := range mounted {
		// A row may show the route's query parameters after it.
		row := "| `" + m[1]
		if !strings.Contains(string(readme), row+"`") && !strings.Contains(string(readme), row+"?") {
			t.Errorf("README lists no row for %s", m[1])
		}
	}
}

// TestExamplesCheckTheirOutput fails on an examples/ directory that holds a
// program rather than tests, and on an Example without an output comment,
// which go test compiles but never runs.
func TestExamplesCheckTheirOutput(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		paths, err := filepath.Glob(filepath.Join("examples", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		fset := token.NewFileSet()
		for _, path := range paths {
			if !strings.HasSuffix(path, "_test.go") {
				t.Errorf("%s: an example is a test file; fold it into example_test.go", path)
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, ex := range doc.Examples(f) {
				if ex.Output == "" && !ex.EmptyOutput {
					t.Errorf("%s: Example%s has no // Output: comment, so it never runs", path, ex.Name)
					continue
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("examples/%s: no Example checks its output", d.Name())
		}
	}
}
