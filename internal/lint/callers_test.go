package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// testOracles lists the functions and methods that only other packages'
// tests call: each reads a truth the production path must not see, so it
// cannot move into the one package's test files. The list can only
// shrink, like the root's benchOnly.
var testOracles = map[string]string{
	"repro/internal/vclock.Clock.TrueStepped": "how far a host clock was stepped; chaos and core tests check that a clockstep action reached the host clock",
	"repro/internal/vclock.AlphaBeta":         "the true affine relation between two host clocks; clocksync and campaign tests check estimated bounds against it",
	"repro/internal/vclock.ManualSource.Set":  "moves a hand-driven reference time; vclock users' tests step it instead of sleeping",
}

// benchOnly lists the functions and methods that only the frozen bench/
// module calls, outside this module's own tests. The list can only shrink:
// a name leaves it when bench/ stops calling it.
var benchOnly = map[string]string{
	"repro/internal/core.Node.Handle":      "bench/ drives an application node's handle directly",
	"repro/internal/clock.Virtual.Source":  "bench/ times the virtual clock's reference source",
	"repro/internal/transport.Marshal":     "bench/ records transport.marshal_ns with it",
	"repro/internal/obs.Trace.WriteChrome": "reached only through the root's bench-only DecodeTrace",
}

// TestEveryFunctionHasAProductionCaller: every function and method
// declared in a non-test file of the module, outside the root package
// (TestRootSurfaceIsUsed guards it) and repro/app (the application SPI,
// whose callers live outside the module), meets one of these:
//   - a non-test file of the module references it (a function's
//     references to itself do not count);
//   - it is a method of a type that implements an interface type the
//     loaded program declares or uses (standard library and error
//     included) which has a method of that name;
//   - its receiver type is one that repro/app aliases: the application
//     SPI;
//   - it is main or init, or it is listed in testOracles or benchOnly.
//
// A listed name that no longer needs its entry (it gained a production
// caller, it satisfies an interface, or it is gone) fails the guard as
// stale, so both lists can only shrink.
//
// Mutation checks, each run in a scratch copy of the module: adding
// `func Unused() {}` to internal/intern fails the guard naming
// repro/internal/intern.Unused; adding `var _ = Marshal` to
// internal/transport fails it naming repro/internal/transport.Marshal as
// stale, and so does deleting vclock.ManualSource.Set; a type in
// internal/intern whose only methods are String and MarshalJSON, and a
// campaign type embedding *localTestbed that overrides the testbed
// interface's recycle, are not flagged, while a further method on the
// first type is.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	pkgs := loadModule(t)
	uncalled, listed := uncalledFuncs(pkgs)
	var stale []string
	for _, list := range []map[string]string{testOracles, benchOnly} {
		for name := range list {
			if !listed[name] {
				stale = append(stale, name)
			}
		}
	}
	slices.Sort(stale)
	if len(uncalled) > 0 {
		t.Errorf("%d functions have no caller outside tests; delete them, move them into a _test.go file, or list an oracle or bench-only name with its reason:\n\t%s",
			len(uncalled), strings.Join(uncalled, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("listed names that are gone or no longer need the list; take them off it: %s", strings.Join(stale, ", "))
	}
	t.Logf("%d packages; %d oracles and %d bench-only names listed", len(pkgs), len(testOracles), len(benchOnly))
}

// uncalledFuncs returns, sorted, the guarded functions with no production
// caller that neither list names, and the set of listed names that still
// need their entry.
func uncalledFuncs(pkgs []*Package) (uncalled []string, listed map[string]bool) {
	refs := productionReferences(pkgs)
	byMethod := interfacesByMethod(pkgs)
	spi := map[*types.TypeName]bool{}
	listed = map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Path != "repro/app" {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					spi[named.Obj()] = true
				}
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Path == "repro" || pkg.Path == "repro/app" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg.Info.Defs[d.Name].(*types.Func)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
					continue
				}
				name := funcName(fn)
				_, oracle := testOracles[name]
				_, bench := benchOnly[name]
				switch {
				case refs[fn], spi[receiver(fn)], satisfiesInterface(fn, byMethod[fn.Name()]):
				case oracle || bench:
					listed[name] = true
				default:
					uncalled = append(uncalled, name)
				}
			}
		}
	}
	slices.Sort(uncalled)
	return uncalled, listed
}

// productionReferences returns every function and method that a loaded
// (non-test) file references from outside the function's own body.
func productionReferences(pkgs []*Package) map[*types.Func]bool {
	refs := map[*types.Func]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var inside types.Object
				if d, ok := decl.(*ast.FuncDecl); ok {
					inside = pkg.Info.Defs[d.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != inside {
							refs[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	return refs
}

// interfacesByMethod indexes, by method name, every interface type that
// the loaded packages and everything they import declare at package
// level, every interface type the loaded files use, and error.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var declared func(p *types.Package)
	declared = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			declared(imp)
		}
	}
	for _, pkg := range pkgs {
		declared(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// satisfiesInterface reports whether fn is a method of a type T such that
// T or *T implements one of ifaces, each of which has a method of fn's
// name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	tn := receiver(fn)
	if tn == nil {
		return false
	}
	named := tn.Type().(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// receiver returns the named type a method is declared on, or nil for a
// function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// funcName names a function as "<import path>.<name>" and a method as
// "<import path>.<type>.<name>".
func funcName(fn *types.Func) string {
	if tn := receiver(fn); tn != nil {
		return fn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
