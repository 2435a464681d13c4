package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the slice of `go list -deps -json` output the loader
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Load enumerates the packages matching patterns (via `go list -deps`,
// run in dir), parses their non-test sources, and type-checks each module
// package once, dependencies first. A module package's imports of other
// module packages are served from the packages already checked, so every
// use of a module name resolves to the one types.Object that Load returns
// for it; only the standard library goes through the source importer.
// Load returns the packages matching patterns, sorted by import path. The
// suite analyzes non-test files only, matching the grep guardrails it
// replaces: tests are white-box and may time themselves, print, and reach
// into internal/.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, err := newLoader().load(dir, patterns)
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// A loader type-checks module packages, each once, and serves them to
// later checks as imports; every other import goes through the standard
// library's source importer, which also checks each package once. A
// loader may be reused: a later load skips what an earlier one checked.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*Package
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), checked: map[string]*Package{}}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.checked[path]; p != nil {
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load checks every module package `go list -deps patterns` names in dir
// that the loader has not checked yet, dependencies first, and returns
// those matching patterns.
func (l *loader) load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goListDeps(dir, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg := l.checked[lp.ImportPath]
		if pkg == nil {
			var names []string
			for _, name := range lp.GoFiles {
				names = append(names, filepath.Join(lp.Dir, name))
			}
			files, err := l.parse(names)
			if err != nil {
				return nil, err
			}
			if pkg, err = l.typecheck(lp.ImportPath, files); err != nil {
				return nil, err
			}
			l.checked[lp.ImportPath] = pkg
		}
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func (l *loader) parse(filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) typecheck(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goListDeps runs `go list -deps -json patterns` in dir. Its output lists
// every package after the packages it imports.
func goListDeps(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		listed = append(listed, &lp)
	}
	return listed, nil
}
