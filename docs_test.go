package tip_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code spans must resolve against the tree.
var docFiles = []string{"DESIGN.md", "README.md"}

// goIndex is what the repository's Go files declare, collected by parsing
// every .go file (the bench module's too).
type goIndex struct {
	// names holds every declared name: package-level declarations,
	// methods, struct fields, interface methods, parameters and locals.
	names map[string]bool
	// pkgs maps a package name to its package-level declarations.
	pkgs map[string]map[string]bool
	// members maps a type name to its fields and methods; embedded maps a
	// type name to the type names it embeds, whose members it promotes.
	members  map[string]map[string]bool
	embedded map[string][]string
	// tests holds every Test, Fuzz and Benchmark function in a _test.go file.
	tests map[string]bool
}

func (x *goIndex) add(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
	x.names[name] = true
}

func buildGoIndex(t *testing.T) *goIndex {
	t.Helper()
	x := &goIndex{
		names:    map[string]bool{},
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embedded: map[string][]string{},
		tests:    map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		x.addFile(f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func (x *goIndex) addFile(f *ast.File, isTest bool) {
	pkg := f.Name.Name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				x.add(x.pkgs, pkg, d.Name.Name)
				if isTest && testName.MatchString(d.Name.Name) {
					x.tests[d.Name.Name] = true
				}
			} else if len(d.Recv.List) == 1 {
				x.add(x.members, recvType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					x.add(x.pkgs, pkg, s.Name.Name)
					x.addType(s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						x.add(x.pkgs, pkg, n.Name)
					}
				}
			}
		}
	}
	// Parameters, locals, local types and the fields of anonymous structs.
	declare := func(es ...ast.Expr) {
		for _, e := range es {
			if id, ok := e.(*ast.Ident); ok {
				x.names[id.Name] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				x.names[id.Name] = true
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				x.names[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				declare(n.Lhs...)
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				declare(n.Key, n.Value)
			}
		case *ast.TypeSpec:
			x.names[n.Name.Name] = true
			x.addType(n.Name.Name, n.Type)
		}
		return true
	})
}

// addType records a named type's fields (struct) or methods (interface).
func (x *goIndex) addType(name string, typ ast.Expr) {
	var fields *ast.FieldList
	switch t := typ.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			x.embedded[name] = append(x.embedded[name], recvType(f.Type))
			x.add(x.members, name, recvType(f.Type))
		}
		for _, n := range f.Names {
			x.add(x.members, name, n.Name)
		}
	}
}

// recvType returns the type name in a receiver or embedded-field expression:
// T, *T, pkg.T, T[P].
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// hasMember reports whether type typ has member m, directly or promoted
// through embedded types.
func (x *goIndex) hasMember(typ, m string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if x.members[typ][m] {
		return true
	}
	for _, e := range x.embedded[typ] {
		if x.hasMember(e, m, seen) {
			return true
		}
	}
	return false
}

var (
	fencedBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?$`)
	goPath      = regexp.MustCompile(`^[*]?(\[\])?[*]?[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	pprofMethod = regexp.MustCompile(`\.\(\*?(\w+)\)\.`)
	callSuffix  = regexp.MustCompile(`^([\w.*\[\]]+)\(.*\)$`)
	indexSuffix = regexp.MustCompile(`\[\w+\]$`)
	braceSet    = regexp.MustCompile(`^([\w.]+)\{([\w, ]+)\}$`)
	repoPath    = regexp.MustCompile(`^\w[\w.-]*(/[\w.-]+)*/?$`)
	fileExt     = regexp.MustCompile(`\.(go|md|json|sh|yml|txt|mod)$`)
	mixedCase   = regexp.MustCompile(`[a-z].*[A-Z]|[A-Z].*[a-z]`)
	// metricName matches bench's dotted metric names (cpu.ns_per_cycle,
	// server.replay_ms.warm.p50): a lower-case snake_case element.
	metricName = regexp.MustCompile(`(^|\.)[a-z0-9]+_[a-z0-9_]*(\.|$)`)
)

// docSpans returns the inline code spans of a markdown document, outside
// fenced blocks, with the line each starts on.
func docSpans(text string) (spans []string, lines []int) {
	text = fencedBlock.ReplaceAllStringFunc(text, func(b string) string {
		return strings.Repeat("\n", strings.Count(b, "\n"))
	})
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		spans = append(spans, strings.Join(strings.Fields(text[m[2]:m[3]]), " "))
		lines = append(lines, 1+strings.Count(text[:m[0]], "\n"))
	}
	return spans, lines
}

// resolve reports whether span names something in the tree; checked is
// false when span is not a test name, Go identifier or repository path at
// all.
func (x *goIndex) resolve(span string) (ok, checked bool) {
	if testName.MatchString(span) {
		name, wild := strings.CutSuffix(span, "*")
		return hasName(x.tests, name, wild), true
	}
	if m := braceSet.FindStringSubmatch(span); m != nil {
		// Name{A,B} abbreviates NameA and NameB; Type{F, G} is a
		// composite literal naming Type's fields.
		for _, alt := range strings.Split(m[2], ",") {
			alt = strings.TrimSpace(alt)
			if ok, _ := x.resolve(m[1] + alt); !ok {
				if ok, _ := x.resolve(m[1] + "." + alt); !ok {
					return false, true
				}
			}
		}
		return true, true
	}
	if repoPath.MatchString(span) {
		// A path whose first element is at the repository root, or a file
		// name (which must then be at the root itself).
		first, _, nested := strings.Cut(span, "/")
		if _, err := os.Stat(first); (nested && err == nil) || fileExt.MatchString(span) {
			_, err := os.Stat(span)
			return err == nil, true
		}
		if nested {
			return false, false // a/b that is no repository path: gap/16
		}
	}
	span = pprofMethod.ReplaceAllString(span, ".$1.")
	if m := callSuffix.FindStringSubmatch(span); m != nil {
		span = m[1]
	}
	span = indexSuffix.ReplaceAllString(span, "")
	span, wild := strings.CutSuffix(span, "*")
	if !goPath.MatchString(span) || metricName.MatchString(span) {
		return false, false
	}
	parts := strings.Split(strings.TrimLeft(span, "*[]"), ".")
	if len(parts) == 1 {
		if !mixedCase.MatchString(parts[0]) {
			return false, false // a plain word or an acronym, not a Go name
		}
		return hasName(x.names, parts[0], wild), true
	}
	// pkg.Name[.Member] or Type.Member[.Member]: only names rooted in this
	// repository's packages or types are checked.
	rest := parts[1:]
	var typ string
	switch {
	case x.pkgs[parts[0]] != nil:
		if !hasName(x.pkgs[parts[0]], rest[0], wild && len(rest) == 1) {
			return false, true
		}
		typ, rest = rest[0], rest[1:]
	case x.members[parts[0]] != nil:
		typ = parts[0]
	default:
		return false, false
	}
	for _, m := range rest {
		if !x.hasMember(typ, m, map[string]bool{}) {
			return false, true
		}
		typ = m // a member's own members: only resolvable when m names a type
		if x.members[typ] == nil {
			return true, true
		}
	}
	return true, true
}

// hasName reports whether set holds name, or with wild a name it prefixes.
func hasName(set map[string]bool, name string, wild bool) bool {
	if !wild {
		return set[name]
	}
	for n := range set {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// TestDocIdentifiersResolve checks that every code span in DESIGN.md and
// README.md naming a Test/Fuzz/Benchmark function, a Go identifier of this
// repository or a repository path names something that exists.
func TestDocIdentifiersResolve(t *testing.T) {
	x := buildGoIndex(t)
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans, lines := docSpans(string(b))
		checked := 0
		for i, s := range spans {
			ok, c := x.resolve(s)
			if c {
				checked++
			}
			if c && !ok {
				t.Errorf("%s:%d: `%s` resolves to nothing in the tree", doc, lines[i], s)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no code span checked", doc)
		}
		t.Logf("%s: %d of %d code spans name a test, Go identifier or path", doc, checked, len(spans))
	}
}
