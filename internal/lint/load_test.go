package lint

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule loads every package of the module, once per test binary.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = Load("../..", []string{"./..."}) })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// TestLoadChecksEachPackageOnce: Load returns each package `go list ./...`
// names exactly once, and a module import resolves to the package Load
// returns for that path, so a use of a core function in campaign points at
// the types.Object Load returns for core. (Before Load served module
// imports from the packages it had checked, the source importer checked
// each module package a second time and the two were different packages.)
func TestLoadChecksEachPackageOnce(t *testing.T) {
	pkgs := loadModule(t)
	out, err := exec.Command("go", "list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "../../...").Output()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		got = append(got, pkg.Path)
		byPath[pkg.Path] = pkg
	}
	if want := strings.Fields(string(out)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Load returned %d packages %v, go list names %d: %v", len(got), got, len(want), want)
	}
	core, campaign := byPath["repro/internal/core"], byPath["repro/internal/campaign"]
	if core == nil || campaign == nil {
		t.Fatal("core or campaign not loaded")
	}
	found := false
	for _, imp := range campaign.Types.Imports() {
		if imp.Path() == core.Path {
			found = true
			if imp != core.Types {
				t.Errorf("campaign imports a different *types.Package for %s than the one Load returns", core.Path)
			}
		}
	}
	if !found {
		t.Errorf("campaign does not import %s", core.Path)
	}
}

// TestLoadFilesMatchesLoad: a package's files loaded the way `go vet
// -vettool` hands them over (LoadFiles, every import through the source
// importer) give the same findings as Load gives for that package. The
// fixtures are loaded by directory, since `go list ./...` skips testdata/;
// goblint imports repro/app, which Load checks itself and LoadFiles
// imports from source.
func TestLoadFilesMatchesLoad(t *testing.T) {
	for _, fixture := range []string{"repro/apps/goblint", "repro/internal/wclint"} {
		dir := "./" + filepath.ToSlash(filepath.Join("testdata", "src", fixture))
		loaded, err := Load(".", []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != 1 {
			t.Fatalf("Load %s returned %d packages, want 1", dir, len(loaded))
		}
		var names []string
		for _, f := range loaded[0].Files {
			names = append(names, loaded[0].Fset.File(f.Pos()).Name())
		}
		files, err := LoadFiles(loaded[0].Path, names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(loaded, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run([]*Package{files}, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no findings to compare", fixture)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LoadFiles findings\n%v\ndiffer from Load's\n%v", fixture, got, want)
		}
	}
}
