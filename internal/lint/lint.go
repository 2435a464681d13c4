// Package lint is Loki's static-analysis suite: six type-aware analyzers
// that machine-check the determinism, virtual-time, and SPI contracts the
// engine's reproducibility claim rests on (byte-identical journals, golden
// parity, quiescence-driven virtual time, the public repro/app surface).
//
// The suite replaces the old grep guardrail scripts
// (scripts/forbid_wallclock.sh, forbid_rawlog.sh, forbid_app_internal.sh),
// which were blind to import aliases, dot-imports, and wrappers. Every
// analyzer here resolves names through the type-checker, so
//
//	import t "time"
//	t.Now()
//
// and
//
//	import . "time"
//	Now()
//
// are caught exactly like a literal time.Now().
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone — go/parser,
// go/types, and the source importer — because this module deliberately has
// no external dependencies. Run the suite with cmd/lokilint
// (`go run ./cmd/lokilint ./...`).
//
// # Escape hatch
//
// A finding that is a documented, deliberate boundary is suppressed with a
// comment directive on the offending line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an allow without a justification is itself a
// diagnostic. Allowlists for whole sanctioned packages (internal/clock is
// the wall-clock boundary, internal/obs is the logging boundary, ...) live
// in the individual analyzers, each with the rationale in its Doc.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check: a name (used in diagnostics and
// //lint:allow directives), a Doc explaining the contract it enforces, and
// a Run function applied to one type-checked package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
// Fix, when non-empty, is a human-oriented suggested remediation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fix      string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
	if d.Fix != "" {
		s += "\n\tfix: " + d.Fix
	}
	return s
}

// A Package is one loaded, parsed, type-checked package: the unit an
// Analyzer runs over. Path is the import path ("repro/internal/obs"); for
// analysistest fixtures it is the pretend path derived from the fixture's
// location under testdata/src, so path-scoped analyzers behave exactly as
// they would on real code.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allow maps analyzer name -> set of suppressed lines per file.
	allow map[string]map[string]map[int]bool
	// directiveDiags are malformed //lint:allow findings, reported by the
	// driver alongside analyzer output.
	directiveDiags []Diagnostic
}

// A Pass carries one (package, analyzer) pairing and collects reports.
type Pass struct {
	*Package
	Analyzer *Analyzer

	diags *[]Diagnostic
}

// ReportWithFix records a diagnostic carrying a suggested remediation.
func (p *Pass) ReportWithFix(pos token.Pos, fix, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...), fix)
}

func (p *Pass) report(pos token.Pos, msg, fix string) {
	position := p.Fset.Position(pos)
	if p.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  msg,
		Fix:      fix,
	})
}

func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	byFile := p.allow[analyzer]
	if byFile == nil {
		return false
	}
	return byFile[pos.Filename][pos.Line]
}

const allowPrefix = "//lint:allow "

// scanDirectives indexes every //lint:allow comment. A directive suppresses
// the named analyzer on the comment's own line (trailing form) and on the
// line directly below it (standalone form). Known analyzer names are
// validated so a typo'd directive fails loudly instead of silently
// suppressing nothing.
func (p *Package) scanDirectives(known map[string]bool) {
	p.allow = map[string]map[string]map[int]bool{}
	p.directiveDiags = nil
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(allowPrefix)) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, strings.TrimSpace(allowPrefix)))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					p.directiveDiags = append(p.directiveDiags, Diagnostic{
						Pos:      pos,
						Analyzer: "lintdirective",
						Message:  "malformed directive: want //lint:allow <analyzer> <reason>; the reason is mandatory",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					p.directiveDiags = append(p.directiveDiags, Diagnostic{
						Pos:      pos,
						Analyzer: "lintdirective",
						Message:  fmt.Sprintf("unknown analyzer %q in //lint:allow directive", name),
					})
					continue
				}
				byFile := p.allow[name]
				if byFile == nil {
					byFile = map[string]map[int]bool{}
					p.allow[name] = byFile
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					byFile[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		Rawlog,
		AppImports,
		UntrackedGo,
		GobRegister,
		MapOrder,
	}
}

// Run applies each analyzer to each package and returns all findings,
// sorted by position then analyzer. Malformed //lint:allow directives are
// reported as findings too.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkg.scanDirectives(known)
		diags = append(diags, pkg.directiveDiags...)
		for _, a := range analyzers {
			pass := &Pass{Package: pkg, Analyzer: a, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// pathWithin reports whether pkg path p is path or a subpackage of it.
func pathWithin(p, prefix string) bool {
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}
