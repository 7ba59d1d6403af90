package klotski_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"klotski/internal/obs"
)

var (
	fencedBlock = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```[^\n]*$")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	rootIdent   = regexp.MustCompile(`\bklotski\.([A-Z]\w*)`)
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
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
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
	for doc, spans := range docSpans(t) {
		for _, span := range spans {
			p, bare, ok := docPath(span)
			if !ok {
				continue
			}
			if bare && names[p] {
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s quotes `%s`, which names %s: no such file or directory", doc, span, p)
			}
		}
	}
}

// docTexts returns README.md, DESIGN.md and docs/*.md, by document.
func docTexts(t *testing.T) map[string]string {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[doc] = string(text)
	}
	return out
}

// docSpans returns the backticked spans outside code blocks of README.md,
// DESIGN.md and docs/*.md, by document.
func docSpans(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for doc, text := range docTexts(t) {
		prose := fencedBlock.ReplaceAllString(text, "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			out[doc] = append(out[doc], m[1])
		}
	}
	return out
}

// baseName is the name of a type expression with pointers, type arguments
// and package qualifiers stripped, or "" if it has none.
func baseName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.Sel
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// goDecls parses every package in the tree, test files included. It
// returns, by package directory name ("klotski" at the root), the names each
// declares at top level and as Type.Member for struct fields, interface
// methods and methods; and, by type name in any package, its members (an
// alias has its target's).
func goDecls(t *testing.T) (pkgs, types map[string]map[string]bool) {
	t.Helper()
	pkgs, types = map[string]map[string]bool{}, map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	aliases := map[string]string{}
	typeSpec := func(pkg string, spec *ast.TypeSpec) {
		typ := spec.Name.Name
		add(pkgs, pkg, typ)
		add(types, typ, "")
		if spec.Assign != 0 {
			aliases[typ] = baseName(spec.Type)
		}
		var fields *ast.FieldList
		switch ty := spec.Type.(type) {
		case *ast.StructType:
			fields = ty.Fields
		case *ast.InterfaceType:
			fields = ty.Methods
		default:
			return
		}
		for _, fld := range fields.List {
			names := []string{baseName(fld.Type)} // embedded
			if len(fld.Names) > 0 {
				names = names[:0]
				for _, n := range fld.Names {
					names = append(names, n.Name)
				}
			}
			for _, name := range names {
				add(pkgs, pkg, typ+"."+name)
				add(types, typ, name)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == ".git" || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(fset, dir, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(dir)
		if dir == "." {
			pkg = "klotski"
		}
		for _, p := range parsed {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						if decl.Recv == nil {
							add(pkgs, pkg, decl.Name.Name)
						} else {
							typ := baseName(decl.Recv.List[0].Type)
							add(pkgs, pkg, typ+"."+decl.Name.Name)
							add(types, typ, decl.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									add(pkgs, pkg, n.Name)
								}
							case *ast.TypeSpec:
								typeSpec(pkg, spec)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for alias, target := range aliases {
		for name := range types[target] {
			add(types, alias, name)
		}
	}
	return pkgs, types
}

// metricNames returns every declared instrument's name and every per-layer
// name BENCHMARK.json reports.
func metricNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for id := obs.Instrument(0); id < obs.NumInstruments; id++ {
		names[id.Name()] = true
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, l := range bench.PerLayer {
		names[l.Name] = true
	}
	return names
}

// qualified matches a backticked pkg.Ident, pkg.Type.Member or Type.Member,
// with or without a call's arguments.
var qualified = regexp.MustCompile(`^([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*){1,2})(?:\(.*\))?$`)

// docIdent reports why a quoted qualified name does not resolve, or "" if it
// does or is not one the documents can be held to. The quote resolves if it
// is a declared instrument or a per-layer name in BENCHMARK.json, or if it
// names a declaration: pkg.X and pkg.T.X in the package directory named
// pkg, T.X on a type T declared anywhere in the tree. A quote whose prefix
// is a repository package or a metric namespace must resolve; one whose
// prefix is neither (a standard package, a local variable) is not checked.
func docIdent(span string, pkgs, types map[string]map[string]bool, metrics map[string]bool) string {
	m := qualified.FindStringSubmatch(span)
	if m == nil || fileExts[path.Ext(span)] {
		return ""
	}
	name := strings.TrimSuffix(strings.SplitN(span, "(", 2)[0], "()")
	if metrics[name] {
		return ""
	}
	prefix, rest := m[1], m[2][1:]
	if decls, ok := pkgs[prefix]; ok && prefix != "main" {
		if !decls[rest] {
			return "package " + prefix + " declares no " + rest
		}
		return ""
	}
	for metric := range metrics {
		if strings.HasPrefix(metric, prefix+".") {
			return "no instrument or per-layer metric is named " + name
		}
	}
	if members, ok := types[prefix]; ok && !strings.Contains(rest, ".") && !members[rest] {
		return "no type " + prefix + " declares " + rest
	}
	return ""
}

// TestDocIdentsExist is the identifier half of TestDocPathsExist: every
// backticked pkg.Ident, pkg.Type.Member and Type.Member that README.md,
// DESIGN.md and docs/*.md quote must still be declared (docIdent), and so
// must every klotski.Ident their code blocks use.
func TestDocIdentsExist(t *testing.T) {
	pkgs, types := goDecls(t)
	metrics := metricNames(t)
	for doc, spans := range docSpans(t) {
		for _, span := range spans {
			if why := docIdent(span, pkgs, types, metrics); why != "" {
				t.Errorf("%s quotes `%s`: %s", doc, span, why)
			}
		}
	}
	for doc, text := range docTexts(t) {
		for _, block := range fencedBlock.FindAllString(text, -1) {
			for _, m := range rootIdent.FindAllStringSubmatch(block, -1) {
				if !pkgs["klotski"][m[1]] {
					t.Errorf("%s uses %s in a code block: package klotski declares no %s", doc, m[0], m[1])
				}
			}
		}
	}
}

// instrumentRows renders obs's instrument table as README.md lists it: one
// row per declared instrument, in declaration order, with its ID, name,
// kind and help text (the ID's doc comment after the ID).
func instrumentRows(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, "internal/obs", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, f := range parsed["obs"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if ty, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || ty.Name != "Instrument" {
				continue
			}
			for i, spec := range gd.Specs[:obs.NumInstruments] {
				ident := spec.(*ast.ValueSpec).Names[0].Name
				help := strings.Join(strings.Fields(spec.(*ast.ValueSpec).Doc.Text()), " ")
				id := obs.Instrument(i)
				rows = append(rows, "| `obs."+ident+"` | `"+id.Name()+"` | "+id.Kind().String()+" | "+
					strings.TrimPrefix(help, ident+" ")+" |")
			}
		}
	}
	if len(rows) != int(obs.NumInstruments) {
		t.Fatalf("found %d instrument declarations, want %d", len(rows), obs.NumInstruments)
	}
	return rows
}

// TestObservabilityTable holds README.md's instrument table equal to the
// table obs declares.
func TestObservabilityTable(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "| `obs.") {
			got = append(got, line)
		}
	}
	want := instrumentRows(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("README.md's instrument table is not obs's; it should read:\n%s", strings.Join(want, "\n"))
	}
}

// TestFacadeTaught keeps klotski.go to what is taught or used. Each
// exported name it declares must be named by README.md or docs/*.md (as
// klotski.X, or first in a backticked span outside code blocks), by a
// klotski.X selector in the examples, example_test.go or non-test Go outside
// klotski.go, or in the signature of a function so kept.
func TestFacadeTaught(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "klotski.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{} // the exported names
	sigs := map[string][]string{} // function → the identifiers its signature uses
	declare := func(id *ast.Ident) {
		if id.IsExported() {
			declared[id.Name] = true
		}
	}
	for _, decl := range facade.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			declare(decl.Name)
			ast.Inspect(decl.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					sigs[decl.Name.Name] = append(sigs[decl.Name.Name], id.Name)
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declare(n)
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rootIdent.FindAllStringSubmatch(string(text), -1) {
			kept[m[1]] = true
		}
		prose := fencedBlock.ReplaceAllString(string(text), "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			kept[leadingIdent.FindString(strings.TrimLeft(m[1], "*&"))] = true
		}
	}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		example := strings.HasPrefix(p, "examples"+string(filepath.Separator)) || p == "example_test.go"
		if d.IsDir() || !strings.HasSuffix(p, ".go") || p == "klotski.go" ||
			(strings.HasSuffix(p, "_test.go") && !example) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "klotski" {
					kept[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for grew := true; grew; {
		grew = false
		for fn, names := range sigs {
			for _, name := range names {
				if kept[fn] && declared[name] && !kept[name] {
					kept[name], grew = true, true
				}
			}
		}
	}
	for name := range declared {
		if !kept[name] {
			t.Errorf("klotski.go exports %s, which no document, example or non-test Go outside it names: teach it or delete it", name)
		}
	}
}

// leadingIdent is the Go identifier a backticked span starts with.
var leadingIdent = regexp.MustCompile(`^[A-Za-z_]\w*`)
