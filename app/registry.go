package app

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Params carries everything the campaign-file loader knows about one
// machine when it builds an application instance: the machine's nickname,
// the study's full membership, the configured run bound, and the seed for
// this machine's randomness. The seed is already offset per machine (the
// study seed plus a per-index stride), so distinct machines draw distinct
// streams under one configured study seed.
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

// Builder constructs one machine of an application under study: its
// instrumented body and its state machine specification. The campaign-file
// loader calls it once per node to describe a study, keeping only the
// specification, which must not depend on Seed, and once per node of every
// testbed it opens, keeping only the body, so testbeds share no instance.
type Builder func(p Params) (*Instrumented, *StateMachine)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Builder)
)

// Register adds an application to the registry under name, making it
// addressable from any campaign.json "app" field. It errors on an empty
// name, a nil builder, or a duplicate registration — an application name is
// part of a campaign file's meaning and must resolve to exactly one
// builder for the life of the process.
func Register(name string, b Builder) error {
	if name == "" {
		return fmt.Errorf("app: Register with empty name")
	}
	if b == nil {
		return fmt.Errorf("app: Register(%q) with nil builder", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("app: application %q already registered", name)
	}
	registry[name] = b
	return nil
}

// MustRegister is Register for package init paths, where a registration
// error is a programming bug.
func MustRegister(name string, b Builder) {
	if err := Register(name, b); err != nil {
		panic(err.Error())
	}
}

// Lookup returns the builder registered under name.
func Lookup(name string) (Builder, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
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
