package loki_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// campaignJSONDecodes lists, as file:function, the only places non-test
// internal/campaign code may call json.Unmarshal or json.NewDecoder: the
// journal header's decode and the cluster's pulled metrics snapshot. A
// journal record line is read by the strict decoder alone once its sum
// verifies; encoding/json is its reference in the tests, not a second
// reader. The list may only shrink: an entry whose call is gone fails the
// test until it is deleted here.
var campaignJSONDecodes = map[string]bool{
	"checkpoint.go:readHeader":          true,
	"cluster_pull.go:pullMemberMetrics": true,
}

// TestCampaignJSONDecodesAllowed walks every non-test file of
// internal/campaign with go/parser and checks each encoding/json decode
// call against campaignJSONDecodes.
func TestCampaignJSONDecodesAllowed(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "campaign", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no internal/campaign sources: %v", err)
	}
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		json := "json" // the name the file imports encoding/json under
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/json"` && imp.Name != nil {
				json = imp.Name.Name
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Unmarshal" && sel.Sel.Name != "NewDecoder" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != json {
					return true
				}
				at := filepath.Base(path) + ":" + fn.Name.Name
				found[at] = true
				if !campaignJSONDecodes[at] {
					t.Errorf("%s: json.%s in %s; a journal line is read by the strict decoder once its sum verifies, and no other encoding/json decode is allowed here",
						fset.Position(call.Pos()), sel.Sel.Name, fn.Name.Name)
				}
				return true
			})
		}
	}
	var stale []string
	for at := range campaignJSONDecodes {
		if !found[at] {
			stale = append(stale, at)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowed encoding/json decodes no longer present (delete them from campaignJSONDecodes): %v", stale)
	}
}
