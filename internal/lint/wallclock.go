package lint

import "go/types"

// wallclockFuncs are the package time entry points that read or block on
// the wall clock. A use of any of them inside internal/ means the code
// would fall out of sync with virtual-time campaigns (PR 6): the discrete-
// event scheduler only advances when every tracked goroutine blocks
// through the injected clock.Clock.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// wallclockAllowedPkgs are the sanctioned wall-clock boundaries, each a
// package whose whole purpose is to touch real time:
//
//   - internal/clock: the abstraction itself (Real wraps the time package
//     and is also the wall-clock tick source behind the host-clock
//     geometry; SpinWait's sub-millisecond spin).
//   - internal/obs: obs.Now() is the sanctioned accessor for operational
//     latencies (journal fsync, analysis, worker utilization) and log
//     timestamps; experiment-visible trace spans take their times from the
//     injected clock.
//
// internal/vclock is not one: host clocks read the runtime's clock.Clock.
var wallclockAllowedPkgs = []string{
	"repro/internal/clock",
	"repro/internal/obs",
}

// Wallclock reports uses of wall-clock time package functions in
// internal/ outside the clock/obs allowlist; no file is exempt. It
// resolves through the type-checker, so aliased imports, dot-imports, and
// stored function values (f := time.Now; f()) are all caught — the failure
// modes the old forbid_wallclock.sh grep was blind to — and methods such
// as time.Time.After, which read no clock, are not.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "reject wall-clock time calls in internal/ outside the injected clock.Clock; " +
		"virtual-time campaigns silently desync from real ones otherwise",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !pathWithin(pass.Path, "repro/internal") {
		return nil
	}
	for _, allowed := range wallclockAllowedPkgs {
		if pathWithin(pass.Path, allowed) {
			return nil
		}
	}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		pass.ReportWithFix(id.Pos(),
			"take the runtime clock (clock.Clock / Handle.Clock()) and call its "+fn.Name()+" instead",
			"time.%s escapes the injected clock.Clock: virtual-time campaigns cannot see or advance past it",
			fn.Name())
	}
	return nil
}
