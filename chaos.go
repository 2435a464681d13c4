package loki

import (
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/faultexpr"
	"repro/internal/simnet"
)

// Chaos subsystem (internal/chaos): state-triggered network and host fault
// actions, and the scenario matrix engine that fans one configuration out
// into {scenarios × latency profiles × seeds} studies.
type (
	// ChaosAction is one installable fault: Partition, HealPartition,
	// DropMessages, DelayMessages, DuplicateMessages, CorruptPayload,
	// CrashRestart, or ClockStep.
	ChaosAction = chaos.Action
	// ChaosEngine dispatches fired action faults onto its runtime.
	ChaosEngine = chaos.Engine
	// ActionCall is a fault specification's trailing action invocation,
	// e.g. "partition(h1|h2,h3) 50ms".
	ActionCall = faultexpr.ActionCall
	// LinkFilter is a traffic filter interposed on a host link.
	LinkFilter = simnet.Filter
	// LinkFate is a filter's verdict on one message.
	LinkFate = simnet.Fate
	// NetLink is a directed host pair ("*" is a wildcard side).
	NetLink = simnet.Link

	// Scenario is one named chaos configuration: fault entries overlaid
	// onto a study's node definitions.
	Scenario = campaign.Scenario
	// ScenarioFault attaches one fault entry to a machine.
	ScenarioFault = campaign.ScenarioFault
	// LatencyProfile names one notification-latency configuration.
	LatencyProfile = campaign.LatencyProfile
	// Matrix expands {scenarios × latency profiles × seeds} into studies.
	Matrix = campaign.Matrix
	// MatrixPoint is one cell of an expanded matrix.
	MatrixPoint = campaign.Point
	// MatrixOutcome is a matrix campaign's complete output.
	MatrixOutcome = campaign.MatrixResult
	// PointOutcome pairs a matrix point with its study outcome.
	PointOutcome = campaign.PointResult
)

// AttachChaos binds a chaos engine to a runtime: fault specification
// entries that name a built-in action (see ParseChaosAction) are executed
// by the engine when they fire, instead of the application's InjectFault
// callback. A Session attaches one automatically when a study carries
// action faults; call this only for hand-rolled runtimes.
func AttachChaos(rt *Runtime, seed int64) *ChaosEngine { return chaos.Attach(rt, seed) }

// ParseChaosAction resolves a fault entry's action call into a built-in
// chaos action.
func ParseChaosAction(call *ActionCall) (ChaosAction, error) { return chaos.ParseAction(call) }

// ParseScenarioFaults parses machine-prefixed fault lines
// ("<machine> <name> <expr> <once|always> [action(args) [for]]") into
// scenario faults.
func ParseScenarioFaults(doc string) ([]ScenarioFault, error) {
	return campaign.ParseScenarioFaults(doc)
}
