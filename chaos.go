package loki

import "repro/internal/campaign"

// Chaos subsystem (internal/chaos): state-triggered network and host fault
// actions, and the scenario matrix engine that fans one template study out
// into {scenarios × latency profiles × seeds} points. A fault entry names
// its action after the expression, e.g. "partition(h1|h2,h3) 50ms"; a
// Session attaches the engine that runs it.
type (
	// Scenario is one named chaos configuration: fault entries overlaid
	// onto a study's node definitions.
	Scenario = campaign.Scenario
	// ScenarioFault attaches one fault entry to a machine.
	ScenarioFault = campaign.ScenarioFault
	// Matrix expands a template study into {scenarios × latency profiles
	// × seeds} points.
	Matrix = campaign.Matrix
	// MatrixPoint is one cell of an expanded matrix.
	MatrixPoint = campaign.Point
	// MatrixOutcome is a matrix campaign's complete output.
	MatrixOutcome = campaign.MatrixResult
)

// ParseScenarioFaults parses machine-prefixed fault lines
// ("<machine> <name> <expr> <once|always> [action(args) [for]]") into
// scenario faults.
func ParseScenarioFaults(doc string) ([]ScenarioFault, error) {
	return campaign.ParseScenarioFaults(doc)
}
