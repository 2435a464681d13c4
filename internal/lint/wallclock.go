package lint

import (
	"go/types"
	"path/filepath"
)

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
//   - internal/clock: the abstraction itself (Real wraps the time package;
//     SpinWait's sub-millisecond spin).
//   - internal/vclock: NewSystemSource is the sanctioned wall-clock tick
//     source behind the host-clock geometry.
//   - internal/obs: obs.Now() is the sanctioned accessor for operational
//     latencies (journal fsync, analysis, worker utilization) and log
//     timestamps; experiment-visible trace spans take their times from the
//     injected clock.
var wallclockAllowedPkgs = []string{
	"repro/internal/clock",
	"repro/internal/vclock",
	"repro/internal/obs",
}

// wallclockAllowedFiles are file-scoped boundaries: the cluster protocol's
// rebroadcast, pong, and done-report waits in
// internal/campaign/cluster_wait.go talk to separate processes over real
// sockets and can never run under virtual time (Open rejects the
// combination). The rest of the cluster code is linted like any other.
var wallclockAllowedFiles = map[string]map[string]bool{
	"repro/internal/campaign": {"cluster_wait.go": true},
}

// Wallclock reports uses of wall-clock time package functions in
// internal/ outside the clock/vclock/obs/cluster-socket allowlist. It
// resolves through the type-checker, so aliased imports, dot-imports, and
// stored function values (f := time.Now; f()) are all caught — the failure
// modes the old forbid_wallclock.sh grep was blind to.
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
	allowedFiles := wallclockAllowedFiles[pass.Path]
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
			continue
		}
		if allowedFiles[filepath.Base(pass.Fset.Position(id.Pos()).Filename)] {
			continue
		}
		pass.ReportWithFix(id.Pos(),
			"take the runtime clock (clock.Clock / Handle.Clock()) and call its "+fn.Name()+" instead",
			"time.%s escapes the injected clock.Clock: virtual-time campaigns cannot see or advance past it",
			fn.Name())
	}
	return nil
}
