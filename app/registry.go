package app

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Params carries everything the campaign-file loader knows about one
// machine when it builds an application instance (Application.New): the
// machine's nickname, the study's full membership, the configured run
// bound, and the seed for this machine's randomness. The seed is already
// offset per machine (the study seed plus a per-index stride), so distinct
// machines draw distinct streams under one configured study seed.
type Params struct {
	// Nick is this machine's state-machine nickname.
	Nick string
	// Peers is the study's full membership in node-file order, this
	// machine included.
	Peers []string
	// RunFor bounds the application's life; it should exit cleanly
	// afterwards so experiments terminate.
	RunFor time.Duration
	// Seed drives this machine's randomness.
	Seed int64
}

// Application is one registered application under study in its two
// halves. Spec is a machine's state machine specification (§3.5.3), a
// function of its nickname and the membership only: the campaign-file
// loader calls it once per node to describe a study. New builds a
// machine's instrumented body (§3.5.7), once per node per study or point
// that a testbed runs, so no two testbeds, and no two studies or points,
// share an instance. An instance's Main never runs twice at once — a
// restart of its node begins only once the crashed run's Main has
// returned — so an instance may keep its per-start state and reset it at
// each start.
type Application struct {
	Spec func(nick string, peers []string) *StateMachine
	New  func(p Params) *Instrumented
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Application)
)

// Register adds an application to the registry under name, making it
// addressable from any campaign.json "app" field. It errors on an empty
// name, a nil Spec or New, or a duplicate registration — an application
// name is part of a campaign file's meaning and must resolve to exactly
// one application for the life of the process.
func Register(name string, a Application) error {
	if name == "" {
		return fmt.Errorf("app: Register with empty name")
	}
	if a.Spec == nil || a.New == nil {
		return fmt.Errorf("app: Register(%q) needs both Spec and New", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("app: application %q already registered", name)
	}
	registry[name] = a
	return nil
}

// MustRegister is Register for package init paths, where a registration
// error is a programming bug.
func MustRegister(name string, a Application) {
	if err := Register(name, a); err != nil {
		panic(err.Error())
	}
}

// Lookup returns the application registered under name.
func Lookup(name string) (Application, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// Names lists every registered application, sorted — the single source of
// truth for "unknown app" diagnostics, so the error text can never drift
// from what is actually registered.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
