package klotski_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoGoroutinesWhereNoneBelong holds the tree to its concurrency
// layout: the audit replays on its caller's goroutine and the pool only
// admits, so the non-test files of internal/audit and internal/sched hold no
// go statement, and the planners never reach for the pool, so no non-test
// file of internal/core imports internal/sched.
func TestNoGoroutinesWhereNoneBelong(t *testing.T) {
	for _, dir := range []string{"internal/audit", "internal/sched"} {
		for _, f := range parseNonTest(t, dir) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", f.fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	for _, f := range parseNonTest(t, "internal/core") {
		for _, imp := range f.file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "klotski/internal/sched" {
				t.Errorf("%s: internal/core imports internal/sched", f.fset.Position(imp.Pos()))
			}
		}
	}
}

type parsedFile struct {
	fset *token.FileSet
	file *ast.File
}

// parseNonTest parses every non-test Go file of dir, failing the test when
// there is none.
func parseNonTest(t *testing.T, dir string) []parsedFile {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []parsedFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parsedFile{fset, f})
	}
	if len(out) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	return out
}
