// Package app is the public service-provider interface (SPI) for
// applications under study. Loki injects faults based on the application's
// global state machine (thesis §2.2), so the application layer is the
// extension point of the whole system — yet it historically lived under
// internal/, capping the studyable protocols at the two built-ins. This
// package lifts that surface out: everything an instrumented application
// needs — the node body handle, the state-machine specification builder,
// the probe fault actions, and a pluggable registry the campaign-file
// loader consults — as stable public types, with no internal/ import
// required (lokilint's appimports analyzer enforces exactly that for
// apps/ and examples/).
//
// A minimal application registers its specification and its constructor
// at init time and becomes addressable from any campaign.json "app" field:
//
//	func init() {
//		app.RegisterMessage(pingMsg{})
//		app.MustRegister("pingpong", app.Application{Spec: specFor, New: func(p app.Params) *app.Instrumented {
//			return app.New(func(h *app.Handle) { run(h, p) })
//		}})
//	}
//
// The handle contract is the §3.5.7 probe interface: report local events
// with Handle.NotifyEvent, exchange application messages over the bus
// (Send/Broadcast/WaitMessage), and block only through Handle and Clock
// primitives (Sleep, WaitMessage, Go, Clock.NewWaiter) so the same
// application runs unchanged under virtual time. Bus payload types must be
// announced through RegisterMessage so they survive the cluster transports'
// gob envelope in multi-process campaigns.
//
// apps/election, apps/replica, and apps/quorum are the built-in zoo, all
// registered through this same path.
package app

import (
	"encoding/gob"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/spec"
)

// Handle is the probe's interface to the node runtime — what the
// instrumented application body calls (§3.5.7): NotifyEvent, Note, Crash,
// Sleep, the application bus (Send/Broadcast/Inbox/WaitMessage), and the
// runtime clock.
type Handle = core.Handle

// Message is one application-bus message: the sending node's nickname plus
// the payload. Payload types crossing process boundaries must be
// registered with RegisterMessage.
type Message = core.AppMessage

// Clock is the runtime's scheduling clock. Applications must take
// timestamps and measure elapsed time through it — never the time package —
// so they run unchanged under virtual time.
type Clock = clock.Clock

// App is what the runtime drives on one node (§3.5.7); a Go-wired study's
// NewApp returns one per node per study or point that a testbed runs, and
// the runtime never runs one instance's Main twice at once.
type App = core.App

// Instrumented is an application assembled from a body and named fault
// actions: the App the runtime drives (§3.5.7).
type Instrumented = probe.Instrumented

// Action is one fault's injection behaviour, registered on an Instrumented
// via On.
type Action = probe.Action

// StateMachine is a parsed state machine specification (§3.5.3): the
// global state list, this machine's events, and per-state notify lists and
// transitions.
type StateMachine = spec.StateMachine

// Reserved state and event names (§3.5.7). BEGIN is every machine's
// implicit initial state; CRASH/EXIT/RESTART are entered by the runtime.
const (
	StateBegin   = spec.StateBegin
	StateExit    = spec.StateExit
	StateCrash   = spec.StateCrash
	StateRestart = spec.StateRestart

	EventCrash   = spec.EventCrash
	EventRestart = spec.EventRestart
	EventDefault = spec.EventDefault
)

// New wraps an application body into an Instrumented. Fault actions are
// registered on the result with On; unregistered faults fall back to a
// timeline note (or the OnUnknown hook).
func New(body func(h *Handle)) *Instrumented { return probe.NewInstrumented(body) }

// ParseSpec parses the §3.5.3 state machine specification format.
func ParseSpec(doc string) (*StateMachine, error) { return spec.ParseStateMachine(doc) }

// MustParseSpec is ParseSpec for specifications assembled in code, where a
// parse error is a bug in the application, not bad input. It parses each
// document text once: every later call with the same text returns the same
// machine, which is therefore shared and must be treated as read-only.
// An Application's Spec runs once per node whenever config.Build describes
// a study, and a matrix of many same-shaped studies asks for the same few
// documents again and again, so the memo keeps those calls from
// re-parsing. ParseSpec, for user input, always returns a fresh machine.
func MustParseSpec(doc string) *StateMachine {
	if m, ok := parsedSpecs.Load(doc); ok {
		return m.(*StateMachine)
	}
	m, err := spec.ParseStateMachine(doc)
	if err != nil {
		panic("app: invalid state machine specification: " + err.Error())
	}
	shared, _ := parsedSpecs.LoadOrStore(doc, m)
	return shared.(*StateMachine)
}

// parsedSpecs memoizes MustParseSpec by document text.
var parsedSpecs sync.Map

// RegisterMessage announces application-bus payload types to the cluster
// transports' gob envelope, so user payloads survive socket hops in
// multi-process campaigns exactly like the built-ins'. Call it from the
// application package's init with one zero value per concrete payload
// type. Registering the same type again is harmless; two different types
// with the same name panic, matching encoding/gob.
// A struct type reaching no interface field and no GobEncoder is encoded
// against a cached type description, checked once against a fresh gob
// encoding; any other type is described anew in every message.
func RegisterMessage(payloads ...interface{}) {
	for _, p := range payloads {
		gob.Register(p)
	}
}

// Probe building blocks (§3.5.7), re-exported so applications need no
// internal/probe import.

// MemoryRegion is a probe-managed byte region that memory faults corrupt.
type MemoryRegion = probe.MemoryRegion

// NewMemoryRegion allocates a region with the given contents.
func NewMemoryRegion(data []byte) *MemoryRegion { return probe.NewMemoryRegion(data) }

// MessageDropper simulates communication faults at the application layer.
type MessageDropper = probe.MessageDropper

// NewMessageDropper creates a dropper with the given random seed.
func NewMessageDropper(seed int64) *MessageDropper { return probe.NewMessageDropper(seed) }

// CrashFault is the classic crash fault: the process dies on injection.
func CrashFault() Action { return probe.CrashFault() }

// DelayedCrashFault crashes after a dormancy period with optional jitter
// (§1.1 fault-to-error dormancy).
func DelayedCrashFault(dormancy, jitter time.Duration, seed int64) Action {
	return probe.DelayedCrashFault(dormancy, jitter, seed)
}

// MemoryFault flips one random bit in the region on every injection.
func MemoryFault(region *MemoryRegion, seed int64) Action { return probe.MemoryFault(region, seed) }

// MessageDropFault drops the next n messages after each injection.
func MessageDropFault(d *MessageDropper, n int) Action { return probe.MessageDropFault(d, n) }

// MessageLossRateFault sets a persistent loss probability on injection.
func MessageLossRateFault(d *MessageDropper, p float64) Action {
	return probe.MessageLossRateFault(d, p)
}

// CPUFault holds the node hostage for the duration; the node stays alive
// but stops making progress.
func CPUFault(busy time.Duration) Action { return probe.CPUFault(busy) }

// NoteFault only records the injection — for dry-run campaigns.
func NoteFault() Action { return probe.NoteFault() }
