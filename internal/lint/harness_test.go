package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture is the analysistest harness: it loads the fixture package at
// testdata/src/<importPath> under its pretend import path, runs one
// analyzer, and checks the findings against `// want` comments:
//
//	time.Sleep(d) // want `regexp matching the finding`
//
// Every finding must match a want on its line; every want must be matched
// by a finding. Multiple backquoted patterns on one line expect multiple
// findings.
func runFixture(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	pkg := loadFixture(t, importPath)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, importPath, err)
	}

	wants := fixtureWants(t, filepath.Join("testdata", "src", filepath.FromSlash(importPath)))
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// runFixtureClean asserts the analyzer produces no findings on the fixture.
func runFixtureClean(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	pkg := loadFixture(t, importPath)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, importPath, err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding on allowlisted fixture: %s", d)
	}
}

// fixtures is the loader every fixture is checked with, so the module
// packages and the standard library the fixtures import are type-checked
// once per test binary, not once per fixture.
var fixtures = newLoader()

// loadFixture loads the fixture package at testdata/src/<importPath>
// under its pretend import path, so path-scoped analyzers (wallclock only
// fires under repro/internal/, ...) treat it exactly like real code at
// that location. Fixtures live under testdata/, which `go list ./...`
// ignores, so they never leak into the repo build; imports of real module
// packages (repro/app) still resolve, which is what lets the gobregister
// fixture exercise the real RegisterMessage surface.
func loadFixture(t *testing.T, importPath string) *Package {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "src", filepath.FromSlash(importPath), "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture %s: no Go files (%v)", importPath, err)
	}
	files, err := fixtures.parse(names)
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
		}
	}
	if len(imports) > 0 {
		if _, err := fixtures.load(filepath.Dir(names[0]), imports); err != nil {
			t.Fatalf("load fixture %s: %v", importPath, err)
		}
	}
	pkg, err := fixtures.typecheck(importPath, files)
	if err != nil {
		t.Fatalf("load fixture %s: %v", importPath, err)
	}
	return pkg
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")
var backquoted = regexp.MustCompile("`([^`]*)`")

func fixtureWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, q := range backquoted.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), line, q[1], err)
					}
					wants = append(wants, want{file: e.Name(), line: line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}
	return wants
}

// TestDirectiveValidation: a malformed or unknown-analyzer //lint:allow is
// itself a finding, so a typo cannot silently suppress nothing.
func TestDirectiveValidation(t *testing.T) {
	pkg := loadFixture(t, "repro/internal/badallow")
	diags, err := Run([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, fmt.Sprintf("%d:%s", d.Pos.Line, d.Message))
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "malformed directive") {
		t.Errorf("missing malformed-directive finding in:\n%s", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "wallklock"`) {
		t.Errorf("missing unknown-analyzer finding in:\n%s", joined)
	}
	// The reasonless directive must not have suppressed the finding it sat on.
	if !strings.Contains(joined, "time.Now escapes") {
		t.Errorf("reasonless directive suppressed the wallclock finding:\n%s", joined)
	}
}

// TestDirectiveFindingsOncePerRun: Run indexes a package's directives
// afresh each time, so a second Run over the same loaded package reports
// each malformed //lint:allow once, not once per earlier Run as well.
func TestDirectiveFindingsOncePerRun(t *testing.T) {
	pkg := loadFixture(t, "repro/internal/badallow")
	var runs [2][]string
	for i := range runs {
		diags, err := Run([]*Package{pkg}, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			runs[i] = append(runs[i], d.String())
		}
	}
	if first, second := strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"); first != second {
		t.Errorf("second Run over the same package reports\n%s\nwant the first Run's\n%s", second, first)
	}
}
