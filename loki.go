// Package loki is a Go reproduction of Loki, the state-driven fault
// injector for distributed systems (R. Chandra, "Loki: A State-Driven Fault
// Injector for Distributed Systems", UIUC CRHC-00-09, 2000; DSN 2000).
//
// Loki injects faults into a distributed system based on a *partial view of
// its global state*: each node's runtime tracks its own state machine plus
// the remote states its fault expressions need, injecting when a Boolean
// expression over (machine:state) atoms goes true. Because notifications
// race with state changes, a post-runtime analysis — off-line clock
// synchronization bounding each host clock's offset and drift, projection
// of all local timelines onto one global timeline, and a conservative
// containment check — verifies that every fault landed in the intended
// global state; experiments with unprovable injections are discarded.
// Surviving experiments feed a measure language (predicates, observation
// functions, subset selections; simple-sampling and stratified campaign
// estimators) that turns timelines into dependability numbers such as
// coverage.
//
// The package is a facade over the internal implementation:
//
//   - Runtime, NodeDef, Handle, App — the runtime phase (thesis ch. 3):
//     virtual hosts with hidden-error clocks, per-host local daemons, a
//     central daemon, dynamic node entry/exit/crash/restart.
//   - Instrumented and the *Fault helpers — probe construction (§3.5.7).
//   - Session, Open, CampaignFile — the one composable entry point: a
//     campaign opened from Go wiring or a declarative campaign.json runs
//     the full three-phase pipeline (§2.3) on any engine (worker pool,
//     scenario matrix, loopback clusters, multi-process members) with
//     cancellation, checkpoint/resume, status, and artifact emission
//     (session.go).
//   - Campaign, Study — the campaign description the Session executes.
//   - ChaosAction, Scenario, Matrix — the chaos subsystem: fault
//     specification entries may name built-in network and host fault
//     actions (partition, drop, delay, duplicate, corrupt, crash,
//     crashrestart, clockstep), and the matrix engine fans one
//     configuration out into {scenarios × latency profiles × seeds}
//     studies across the worker pool (see chaos.go and EXPERIMENTS.md).
//   - ParsePredicate, ParseObservation, StudyMeasure, SimpleSampling,
//     StratifiedWeighted — measure estimation (ch. 4).
//   - EstimateClocks, BuildGlobalTimeline, CheckExperiment — the analysis
//     phase à la carte (§2.5).
//
// A minimal session runs a declarative campaign file end to end:
//
//	s, err := loki.Open("campaign.json", loki.WithWorkers(8))
//	defer s.Close()
//	res, err := s.Run(ctx)
//	fmt.Println(res.Campaign.Study("study1").AcceptanceRate())
//
// The same session API drives hand-wired campaigns — loki.Open(&loki.
// Campaign{...}) — and the runtime layer stays available for bespoke
// testbeds:
//
//	rt := loki.NewRuntime(loki.RuntimeConfig{})
//	rt.AddHost("h1", loki.ClockConfig{})
//	rt.Register(loki.NodeDef{Nickname: "sm1", Spec: spec, App: app})
//	rt.StartNode("sm1", "h1")
//	rt.Wait(time.Second)
//
// See examples/quickstart for a complete program, examples/election for
// the thesis's Chapter 5 campaign, and examples/chaos for a campaign-file
// driven scenario matrix.
package loki

import (
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// Runtime-phase types (thesis Chapter 3).
type (
	// Runtime is one Loki testbed: virtual hosts, daemons, and nodes.
	Runtime = core.Runtime
	// RuntimeConfig tunes delays, the watchdog, and logging.
	RuntimeConfig = core.Config
	// NodeDef binds a nickname to its state machine specification, fault
	// specification, and instrumented application.
	NodeDef = core.NodeDef
	// Node is one running component with its attached Loki runtime.
	Node = core.Node
	// Handle is the probe interface instrumented applications call
	// (NotifyEvent, Crash, Send, ...).
	Handle = core.Handle
	// App is an instrumented application: Main plus InjectFault.
	App = core.App
	// AppMessage is an application-bus message.
	AppMessage = core.AppMessage
	// CentralDaemon coordinates experiments over a Runtime.
	CentralDaemon = core.CentralDaemon
	// ExperimentResult is one experiment's runtime-phase output.
	ExperimentResult = core.ExperimentResult
)

// Clock and time types (the virtual multi-host substrate).
type (
	// Ticks is a time value in nanoseconds.
	Ticks = vclock.Ticks
	// ClockConfig is a host clock's hidden error (offset, drift,
	// granularity, jitter).
	ClockConfig = vclock.ClockConfig
	// Clock is a host's local clock.
	Clock = vclock.Clock
	// TimeSource is a physical time base.
	TimeSource = vclock.Source
)

// Specification types (§3.5.3, §3.5.5).
type (
	// StateMachineSpec is a parsed state machine specification.
	StateMachineSpec = spec.StateMachine
	// StateDef is one state's notify list and transition function.
	StateDef = spec.StateDef
	// FaultSpec is one fault: name, Boolean expression, once|always.
	FaultSpec = faultexpr.Spec
	// FaultExpr is a parsed Boolean fault expression.
	FaultExpr = faultexpr.Expr
	// FaultMode is once or always.
	FaultMode = faultexpr.Mode
	// NodeEntry is one node-file line: nickname plus optional auto-start
	// host.
	NodeEntry = spec.NodeEntry
)

// Fault trigger modes.
const (
	Once   = faultexpr.Once
	Always = faultexpr.Always
)

// Reserved state and event names (§3.5.7).
const (
	StateBegin = spec.StateBegin
	StateExit  = spec.StateExit
	StateCrash = spec.StateCrash
)

// Timeline types (§3.5.6).
type (
	// LocalTimeline is one node's recorded history.
	LocalTimeline = timeline.Local
	// TimelineEntry is one local timeline record.
	TimelineEntry = timeline.Entry
	// TimelineStore is the shared timeline repository (the thesis's NFS
	// mount).
	TimelineStore = timeline.Store
)

// NewRuntime creates a testbed runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return core.New(cfg) }

// NewCentralDaemon wraps a runtime with experiment coordination (§3.5.1).
func NewCentralDaemon(rt *Runtime) *CentralDaemon { return core.NewCentralDaemon(rt) }

// ParseStateMachine parses the §3.5.3 state machine specification format.
func ParseStateMachine(doc string) (*StateMachineSpec, error) {
	return spec.ParseStateMachine(doc)
}

// ParseFaultSpecs parses a §3.5.5 fault specification document, one
// "<name> <expr> <once|always>" entry per line.
func ParseFaultSpecs(doc string) ([]FaultSpec, error) {
	return faultexpr.ParseSpecs(doc)
}

// ParseFaultExpr parses a Boolean fault expression such as
// "((SM1:ELECT) & (SM2:FOLLOW))".
func ParseFaultExpr(src string) (FaultExpr, error) { return faultexpr.Parse(src) }

// ParseNodeFile parses a §3.5.1 node file.
func ParseNodeFile(doc string) ([]NodeEntry, error) { return spec.ParseNodeFile(doc) }

// EncodeTimeline renders a local timeline in the §3.5.6 file format.
func EncodeTimeline(l *LocalTimeline) (string, error) { return timeline.EncodeString(l) }

// DecodeTimeline parses the §3.5.6 local timeline file format.
func DecodeTimeline(doc string) (*LocalTimeline, error) { return timeline.DecodeString(doc) }
