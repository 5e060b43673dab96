package humancomp_test

import (
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeListsEveryRoute fails on each route the dispatch server mounts
// that README's route tables leave out, and on each README route row that
// neither the dispatch server, its admin handler nor the replication
// source mounts. The replication patterns carry no method, so a row
// matches a pattern without one on its path alone.
func TestReadmeListsEveryRoute(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	server := mountedPatterns(t, filepath.Join("internal", "dispatch", "server.go"))
	for _, p := range server {
		if !strings.Contains(p, " ") {
			continue
		}
		// A row may show the route's query parameters after it.
		row := "| `" + p
		if !strings.Contains(string(readme), row+"`") && !strings.Contains(string(readme), row+"?") {
			t.Errorf("README lists no row for %s", p)
		}
	}
	mounted := map[string]bool{}
	for _, p := range slices.Concat(server,
		mountedPatterns(t, filepath.Join("internal", "dispatch", "admin.go")),
		mountedPatterns(t, filepath.Join("internal", "repl", "source.go"))) {
		mounted[p] = true
	}
	rows := regexp.MustCompile("(?m)^\\| `(([A-Z]+ )?(/[^`?]*))").FindAllStringSubmatch(string(readme), -1)
	if len(rows) == 0 {
		t.Fatal("no route rows found in README.md")
	}
	for _, r := range rows {
		// A row ending in * stands for a subtree pattern.
		if !mounted[strings.TrimSuffix(r[1], "*")] && !mounted[strings.TrimSuffix(r[3], "*")] {
			t.Errorf("README lists %s, which nothing mounts", r[1])
		}
	}
}

// mountedPatterns returns the mux patterns the source file at path
// registers.
func mountedPatterns(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, m := range regexp.MustCompile(`(?:route|routeIdem|serve|mount|HandleFunc)\("([^"]+)"`).FindAllStringSubmatch(string(src), -1) {
		patterns = append(patterns, m[1])
	}
	if len(patterns) == 0 {
		t.Fatalf("no routes found in %s", path)
	}
	return patterns
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
