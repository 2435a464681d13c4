package loki_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests: every alternative of a `-run` pattern and every
// `-fuzz` target in .github/workflows/ci.yml matches a Test, Fuzz or
// Benchmark function declared in the packages its `go test` names. `go
// test -run` with no match passes, so a renamed or deleted test would
// otherwise drop out of its CI step silently. A `-run` beside `-fuzz` is
// the run-no-tests idiom (`-run xxx`) and is not checked.
//
// Mutation check, run in a scratch copy of the module: renaming
// TestGatherFrameSets in internal/campaign fails this test naming the
// pattern and ./internal/campaign.
func TestCIPatternsNameTests(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{}
	checked := 0
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		if !strings.HasPrefix(line, "go test ") {
			continue
		}
		cmd, _, _ := strings.Cut(line, "&&")
		args := shellFields(cmd)[2:]
		var run, fuzz string
		var pkgs []string
		for i := 0; i < len(args); i++ {
			switch a := args[i]; {
			case a == "-run" || a == "-fuzz":
				i++
				if a == "-run" {
					run = args[i]
				} else {
					fuzz = args[i]
				}
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		var alternatives []string
		switch {
		case fuzz != "":
			alternatives = []string{fuzz}
		case run != "":
			alternatives = strings.Split(run, "|")
		}
		for _, alt := range alternatives {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%q: %v", alt, err)
				continue
			}
			found := false
			for _, pkg := range pkgs {
				if declared[pkg] == nil {
					declared[pkg] = testFuncs(t, pkg)
				}
				for _, name := range declared[pkg] {
					found = found || re.MatchString(name)
				}
			}
			if !found {
				t.Errorf("ci.yml: %q matches no test declared in %s", alt, strings.Join(pkgs, " "))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml names no tests; the parser is out of step with the file")
	}
	t.Logf("%d -run alternatives and -fuzz targets checked", checked)
}

// shellFields splits a command line at spaces outside single quotes and
// drops the quotes.
func shellFields(s string) []string {
	var fields []string
	var cur strings.Builder
	quoted, inField := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inField = !quoted, true
		case r == ' ' && !quoted:
			if inField {
				fields = append(fields, cur.String())
				cur.Reset()
			}
			inField = false
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		fields = append(fields, cur.String())
	}
	return fields
}

// testFuncs returns the names of the Test, Fuzz and Benchmark functions
// declared in the _test.go files of the package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("ci.yml names %s, which has no test files (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
				for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
					if strings.HasPrefix(d.Name.Name, prefix) {
						names = append(names, d.Name.Name)
					}
				}
			}
		}
	}
	return names
}
