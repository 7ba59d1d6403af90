package klotski_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedBlock = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```[^\n]*$")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
)

// fileExts are the extensions that make a quoted name a file; after any other
// dot a quoted path names a package member (internal/gen.JointScenario).
var fileExts = map[string]bool{".go": true, ".json": true, ".sh": true, ".md": true}

// docPath reports the repository path a backticked span quotes, if any, and
// whether it is a bare file name. Only the span's first word counts, so a
// quoted command line (`cmd/figures -fig 8`) names its command.
func docPath(span string) (p string, bare, ok bool) {
	words := strings.Fields(span)
	if len(words) == 0 {
		return "", false, false
	}
	p = strings.TrimPrefix(words[0], "./")
	p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
	if i := strings.IndexByte(p, ':'); i >= 0 {
		p = p[:i] // file.go:123
	}
	if p == "" || strings.ContainsAny(p, "*{}<>$") {
		return "", false, false
	}
	dir, elem := path.Split(p)
	if dir == "" {
		return p, true, fileExts[path.Ext(elem)]
	}
	switch strings.SplitN(p, "/", 2)[0] {
	case "cmd", "internal", "scripts", "docs", "examples":
	default:
		return "", false, false
	}
	if i := strings.IndexByte(elem, '.'); i >= 0 && !fileExts[path.Ext(elem)] {
		p = dir + elem[:i] // a package member: check its package
	}
	return p, false, true
}

// TestDocPathsExist holds the prose documents to the tree: every repository
// path README.md, DESIGN.md and docs/*.md quote in backticks must exist. A
// path under cmd/, internal/, scripts/, docs/ or examples/ is looked up as
// written; a bare *.go, *.json, *.sh or *.md name at the root or, as the
// documents name package files in context, anywhere in the tree. History
// that names what is gone says so in plain prose. ROADMAP.md and CHANGES.md
// are history and bench/README.md belongs to the benchmark; none is read.
func TestDocPathsExist(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	names := map[string]bool{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(text), "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			p, bare, ok := docPath(m[1])
			if !ok {
				continue
			}
			if bare && names[p] {
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s quotes `%s`, which names %s: no such file or directory", doc, m[1], p)
			}
		}
	}
}
