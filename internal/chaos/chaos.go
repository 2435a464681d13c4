// Package chaos is the fault-action subsystem: it turns state-triggered
// faults from application callbacks into a composable library of network
// and host fault actions.
//
// The thesis's fault injection runs entirely through the application's
// probe (InjectFault, §3.5.7), which limits the fault vocabulary to
// whatever each application implements. This package supplies the faults a
// distributed-systems campaign cares most about — message loss, delay,
// duplication and corruption, network partitions, host crash-restart, and
// clock misbehaviour — as first-class, installable/removable Actions that
// any study can name from its fault specification:
//
//	netsplit ((SM1:ELECT) & (SM2:FOLLOW)) once partition(h1|h2,h3) 50ms
//
// When the fault parser fires such an entry, the runtime dispatches it to
// an Engine (Attach) instead of the application callback; the trailing
// duration, when present, auto-reverts the action that long after
// injection.
//
// Actions manipulate the core.Runtime the study runs on: network actions
// interpose on its application bus through simnet's link filters
// (Filter/Fate), host actions go through the hostfail path
// (CrashHost/RebootHost), and deferred work — auto-reverts, restarts — is
// scoped to the current experiment (Runtime.ExpAfterFunc). All randomness
// in installed filters flows from the runtime's seeded source (SeedNetem),
// keeping runs deterministic under a seed.
package chaos

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faultexpr"
)

// Action is one installable fault. Built-ins live in actions.go; every
// action is deterministic given its parameters and the runtime's seed.
// Host arguments follow the runtime's host names; simnet.Wildcard matches
// any host in link positions.
type Action interface {
	// Name returns the action's registry name (the spec-file spelling).
	Name() string
	// Apply installs the fault on the testbed.
	Apply(rt *core.Runtime) error
	// Revert removes it again, best-effort; the Engine calls this after
	// the spec's auto-revert window.
	Revert(rt *core.Runtime) error
}

// Engine dispatches fired action faults onto the runtime it is attached
// to (Attach). Apply, revert and restart failures go to the runtime's
// diagnostics (Runtime.Logf).
type Engine struct {
	rt *core.Runtime

	mu    sync.Mutex
	cache map[string]Action // parsed actions by call syntax
	// revGen counts firings per action call; a scheduled auto-revert only
	// runs if no later firing superseded it, so overlapping windows of an
	// `always` fault extend the fault instead of cutting it short.
	revGen map[string]uint64
}

// Attach binds a chaos engine to a live runtime: it seeds the runtime's
// traffic-shaping randomness and installs the engine as the runtime's
// fault-action dispatcher, so fault specification entries naming a
// built-in action execute here when they fire.
func Attach(rt *core.Runtime, seed int64) *Engine {
	rt.SeedNetem(seed)
	e := &Engine{rt: rt, cache: make(map[string]Action), revGen: make(map[string]uint64)}
	rt.SetFaultActionHook(func(n *core.Node, f faultexpr.Spec) {
		e.Dispatch(f)
	})
	return e
}

// Dispatch resolves and applies one fired action fault: Apply now, and
// Revert after the spec's For window when one is given. Resolution errors
// and apply failures are logged to the runtime, not fatal — a misfiring fault
// must not take the campaign down.
func (e *Engine) Dispatch(f faultexpr.Spec) {
	if f.Action == nil {
		return
	}
	act, err := e.resolve(f.Action)
	if err != nil {
		e.rt.Logf("chaos: fault %s: %v", f.Name, err)
		return
	}
	if err := act.Apply(e.rt); err != nil {
		e.rt.Logf("chaos: fault %s: apply %s: %v", f.Name, f.Action, err)
		return
	}
	if f.Action.For > 0 {
		key := f.Action.String()
		e.mu.Lock()
		e.revGen[key]++
		gen := e.revGen[key]
		e.mu.Unlock()
		e.rt.ExpAfterFunc(f.Action.For, func() {
			e.mu.Lock()
			stale := e.revGen[key] != gen
			e.mu.Unlock()
			if stale {
				return // a later firing re-applied the action; its revert governs
			}
			if err := act.Revert(e.rt); err != nil {
				e.rt.Logf("chaos: fault %s: revert %s: %v", f.Name, f.Action, err)
			}
		})
	}
}

// resolve parses a call once and caches it by syntax; an `always` fault
// re-applies the same Action value on every firing.
func (e *Engine) resolve(call *faultexpr.ActionCall) (Action, error) {
	key := call.String()
	e.mu.Lock()
	defer e.mu.Unlock()
	if a, ok := e.cache[key]; ok {
		return a, nil
	}
	a, err := ParseAction(call)
	if err != nil {
		return nil, err
	}
	e.cache[key] = a
	return a, nil
}

// HasActionFaults reports whether any node definition carries a fault
// entry naming a built-in action — the signal that a runtime needs an
// engine attached.
func HasActionFaults(defs []core.NodeDef) bool {
	for _, def := range defs {
		for _, f := range def.Faults {
			if f.Action != nil {
				return true
			}
		}
	}
	return false
}

// ValidateSpecs parses every action call in the definitions' fault
// entries and, when hosts is non-empty, checks every referenced host
// exists — so a campaign rejects a misspelled action or a typoed host
// before running experiments, instead of "surviving" a netsplit that
// never happened.
func ValidateSpecs(defs []core.NodeDef, hosts []string) error {
	known := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		known[h] = true
	}
	for _, def := range defs {
		for _, f := range def.Faults {
			if f.Action == nil {
				continue
			}
			a, err := ParseAction(f.Action)
			if err != nil {
				return fmt.Errorf("chaos: node %q fault %q: %w", def.Nickname, f.Name, err)
			}
			if len(known) == 0 {
				continue
			}
			for _, h := range HostRefs(a) {
				if !known[h] {
					return fmt.Errorf("chaos: node %q fault %q: action %s references unknown host %q",
						def.Nickname, f.Name, f.Action, h)
				}
			}
		}
	}
	return nil
}
