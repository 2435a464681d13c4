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
// The package is the campaign runner's facade over the internal
// implementation. Application authors import repro/app instead: it holds
// the node body handle, the state machine parser, the probe fault
// actions and the registry a campaign file's "app" field resolves
// through. The §3.5 off-line tools are lokirun subcommands (getstamps,
// alphabeta, makeglobal, measure).
//
//   - Session, Open, CampaignFile — the one composable entry point: a
//     campaign opened from Go wiring or a declarative campaign.json runs
//     the full three-phase pipeline (§2.3) on any engine (worker pool,
//     scenario matrix, loopback clusters, multi-process members) with
//     cancellation, checkpoint/resume, status, and artifact emission
//     (session.go).
//   - Campaign, Study, NodeDef, FaultSpec — the campaign description the
//     Session executes. A study's nodes carry no application: its NewApp
//     builds one per node per study or point that a testbed runs.
//     ParseFaultSpecs,
//     ParseNodeFile and ParseScenarioFaults read the thesis's classic
//     files.
//   - Scenario, Matrix — the chaos subsystem: fault specification entries
//     may name built-in network and host fault actions (partition, drop,
//     delay, duplicate, corrupt, crash, crashrestart, clockstep), and the
//     matrix engine fans one template study out into {scenarios × latency
//     profiles × seeds} points across the worker pool (see chaos.go and
//     EXPERIMENTS.md).
//   - Runtime, NewRuntime — the runtime phase (thesis ch. 3) for bespoke
//     testbeds: virtual hosts with hidden-error clocks, per-host local
//     daemons, dynamic node entry/exit/crash/restart.
//   - ParsePredicate, ParseObservation, ParseSelector, StudyMeasure,
//     SimpleSampling, Coverage — measure estimation (ch. 4).
//   - WithMetrics, WithTracing, WithLogging, GenerateReport — observing a
//     run and reporting on it (observe.go).
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
//	rt.Register(loki.NodeDef{Nickname: "sm1", Spec: spec, App: app.New(body)})
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
	// NodeDef binds a nickname to its state machine specification and
	// fault specification and, for Runtime.Register, its instrumented
	// application.
	NodeDef = core.NodeDef
	// Handle is the probe interface instrumented applications call
	// (NotifyEvent, Crash, Send, ...).
	Handle = core.Handle
	// CentralDaemon coordinates experiments over a Runtime.
	CentralDaemon = core.CentralDaemon
	// ClockConfig is a host clock's hidden error (offset, drift,
	// granularity, jitter).
	ClockConfig = vclock.ClockConfig
)

// Specification and timeline types (§3.5.3, §3.5.5, §3.5.6).
type (
	// StateMachineSpec is a parsed state machine specification.
	StateMachineSpec = spec.StateMachine
	// FaultSpec is one fault: name, Boolean expression, once|always.
	FaultSpec = faultexpr.Spec
	// FaultExpr is a parsed Boolean fault expression.
	FaultExpr = faultexpr.Expr
	// NodeEntry is one node-file line: nickname plus optional auto-start
	// host.
	NodeEntry = spec.NodeEntry
	// LocalTimeline is one node's recorded history (§3.5.6).
	LocalTimeline = timeline.Local
)

// Once is the trigger mode of a fault that injects at most once per
// experiment.
const Once = faultexpr.Once

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
