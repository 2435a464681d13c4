package loki_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchOnly lists the root exports that only the frozen bench/ module
// still calls. The list can only shrink: a name leaves it when bench/
// stops calling it (and the export is deleted), and a name whose first
// caller outside bench/ appears must leave it too, since it is then part
// of the surface in its own right.
var benchOnly = map[string]bool{
	"BuildGlobalTimeline": true,
	"CheckExperiment":     true,
	"DecodeTrace":         true,
	"EncodeCampaignFile":  true,
	"EstimateClocks":      true,
	"FaultSpecsOf":        true,
	"NewCentralDaemon":    true,
	"NewLoopbackCluster":  true,
	"Instrument":          true,
	"Handle":              true,
	"ParseStateMachine":   true,
}

// TestRootSurfaceIsUsed: every exported top-level name of the root
// package has a reference in a module .go file outside bench/, testdata/
// and .bench_build/, or is listed in benchOnly. Inside package loki a
// reference is any identifier other than a declaration, a selector's
// field name or a composite-literal key; elsewhere it is X.Name, where X
// is the local name of the "repro" import. Application authors import
// repro/app, so a root name with no campaign-runner caller is surface
// nobody reads.
//
// Mutation checks, each run in a scratch copy of the module: adding an
// exported `func Unused() {}` to loki.go fails the test naming Unused,
// and calling loki.Instrument from a root test fails it naming
// Instrument as a benchOnly name with a caller outside bench/.
func TestRootSurfaceIsUsed(t *testing.T) {
	exports := rootExports(t)
	refs := moduleReferences(t)
	var unused, stale []string
	for _, name := range exports {
		switch used := refs[name]; {
		case benchOnly[name] && used:
			stale = append(stale, name)
		case !benchOnly[name] && !used:
			unused = append(unused, name)
		}
	}
	for name := range benchOnly {
		if !slices.Contains(exports, name) {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	if len(unused) > 0 {
		t.Errorf("%d root exports have no reference outside bench/; delete them (application authors have repro/app): %s",
			len(unused), strings.Join(unused, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("benchOnly lists names that are gone or have a caller outside bench/; take them off the list: %s",
			strings.Join(stale, ", "))
	}
	t.Logf("%d root exports, %d of them bench-only", len(exports), len(benchOnly))
}

// rootExports returns the sorted exported top-level names declared in the
// root package's non-test files. Methods are not top-level names.
func rootExports(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// moduleReferences returns the set of names referenced, in the sense of
// TestRootSurfaceIsUsed, from every module .go file outside bench/,
// testdata/ and .bench_build/.
func moduleReferences(t *testing.T) map[string]bool {
	t.Helper()
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "bench", "testdata", ".bench_build", ".git":
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
		if filepath.Dir(path) == "." && f.Name.Name == "loki" {
			packageReferences(f, refs)
		} else {
			importerReferences(f, refs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// packageReferences adds every identifier of a package loki file that is
// not a declaration, a selector's field name or a composite-literal key.
func packageReferences(f *ast.File, refs map[string]bool) {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		case *ast.Ident:
			if !skip[n] {
				refs[n.Name] = true
			}
		}
		return true
	})
}

// importerReferences adds every X.Name of a file that imports "repro" as
// X.
func importerReferences(f *ast.File, refs map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "repro" {
			local = "loki"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				refs[sel.Sel.Name] = true
			}
		}
		return true
	})
}
