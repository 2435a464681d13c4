package lint

import (
	"go/types"
	"os/exec"
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

// TestFixturesShareImports: every fixture is checked with one loader, so
// two fixtures that import repro/app resolve it to the same
// *types.Package, checked once, not once per fixture.
func TestFixturesShareImports(t *testing.T) {
	imported := func(fixture string) *types.Package {
		for _, imp := range loadFixture(t, fixture).Types.Imports() {
			if imp.Path() == "repro/app" {
				return imp
			}
		}
		t.Fatalf("%s does not import repro/app", fixture)
		return nil
	}
	if a, b := imported("repro/apps/goblint"), imported("repro/apps/uglint"); a != b {
		t.Error("two fixtures resolve repro/app to different packages: each was checked by its own loader")
	}
}
