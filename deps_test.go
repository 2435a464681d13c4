package loki_test

import (
	"os/exec"
	"strings"
	"testing"
)

// templateImporters may import text/template or html/template. It is
// empty, and should stay so.
var templateImporters = map[string]bool{}

// TestNoTemplateInProductionPackages: no non-test package of the module
// depends on text/template or html/template. text/template calls
// reflect.Value.MethodByName, and a binary that links that call keeps
// every exported method of every reachable type, because the linker can
// no longer tell which are unused. Taking the report's template out
// shrank lokirun from 12.0 to 7.9 MB, lokid (since folded into lokirun)
// from 14.8 to 11.6 MB and lokibench from 12.4 to 8.3 MB (go1.24,
// linux/amd64, -trimpath).
func TestNoTemplateInProductionPackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to list the packages with")
	}
	out, err := exec.Command(goTool, "list", "-deps", "-f", `{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if templateImporters[pkg] || strings.HasPrefix(pkg, "text/template") || strings.HasPrefix(pkg, "html/template") {
			continue
		}
		for _, imp := range strings.Fields(imports) {
			if imp == "text/template" || imp == "html/template" {
				t.Errorf("%s imports %s: text/template's reflect.Value.MethodByName stops the linker from pruning unused methods (lokirun was 12.0 MB with the report's template, 7.9 MB without; lokibench 12.4 and 8.3 MB)", pkg, imp)
			}
		}
	}
}
