package lint

import (
	"go/ast"
	"go/types"
)

// rawlogFmt / rawlogLog are the stdout/stderr writers the engine must not
// use directly: internal/ diagnostics go through the structured leveled
// logger (internal/obs), so `lokirun -v` controls everything
// and silent-by-default runs stay silent. Commands (cmd/) own their stdout
// and are out of scope.
var rawlogFmt = map[string]bool{"Print": true, "Printf": true, "Println": true}
var rawlogFprint = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}
var rawlogLog = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// Rawlog reports raw printing and stdlib logging in internal/ outside
// internal/obs (the logger implementation itself). Beyond the old grep it
// also catches fmt.Fprint* aimed at os.Stdout/os.Stderr and the print/
// println builtins, and it resolves aliased and dot-imports through the
// type-checker.
var Rawlog = &Analyzer{
	Name: "rawlog",
	Doc: "reject fmt.Print*/log.*/builtin print writes to stdout or stderr in internal/; " +
		"route engine diagnostics through internal/obs so verbosity flags govern them",
	Run: runRawlog,
}

func runRawlog(pass *Pass) error {
	if !pathWithin(pass.Path, "repro/internal") || pathWithin(pass.Path, "repro/internal/obs") {
		return nil
	}
	const fix = "route this through the obs logger (obs.Logf / the engine's cfg.Logf) so -v controls it"
	for id, obj := range pass.Info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			if o.Pkg() == nil {
				continue
			}
			switch o.Pkg().Path() {
			case "fmt":
				if rawlogFmt[o.Name()] {
					pass.ReportWithFix(id.Pos(), fix,
						"fmt.%s writes straight to stdout from engine code", o.Name())
				}
			case "log":
				if rawlogLog[o.Name()] {
					pass.ReportWithFix(id.Pos(), fix,
						"log.%s bypasses the structured leveled logger", o.Name())
				}
			}
		case *types.Builtin:
			if o.Name() == "print" || o.Name() == "println" {
				pass.ReportWithFix(id.Pos(), fix,
					"builtin %s writes straight to stderr from engine code", o.Name())
			}
		}
	}
	// fmt.Fprint*(os.Stdout|os.Stderr, ...): the writer makes it raw output.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || !rawlogFprint[fn.Name()] {
				return true
			}
			if v := usedVar(pass, call.Args[0]); v != nil && v.Pkg() != nil && v.Pkg().Path() == "os" &&
				(v.Name() == "Stdout" || v.Name() == "Stderr") {
				pass.ReportWithFix(call.Pos(), fix,
					"fmt.%s to os.%s is a raw write from engine code", fn.Name(), v.Name())
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's callee to its *types.Func, seeing through
// parens, package qualifiers, and method selections.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch e := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// usedVar resolves an expression to the package-level *types.Var it
// denotes, if any (e.g. os.Stdout through any import alias).
func usedVar(pass *Pass, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pass.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pass.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}
