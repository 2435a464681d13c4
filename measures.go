package loki

import (
	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
)

// Analysis-phase types (§2.5).
type (
	// ClockBounds are the convex-hull [alpha-,alpha+] x [beta-,beta+]
	// bounds relating a host clock to the reference clock.
	ClockBounds = clocksync.Bounds
	// StampedMessage is one timestamped synchronization message.
	StampedMessage = clocksync.StampedMessage
	// GlobalTimeline is the single reference timeline of one experiment.
	GlobalTimeline = analysis.Global
	// AnalysisReport is the per-experiment injection-correctness verdict.
	AnalysisReport = analysis.Report
	// CheckOptions tunes analysis strictness.
	CheckOptions = analysis.CheckOptions
)

// Measure-phase types (Chapter 4).
type (
	// Predicate queries a global timeline as a function of time (§4.3.1).
	Predicate = predicate.Expr
	// ObservationFunc reduces a PVT to one value (§4.3.2).
	ObservationFunc = observation.Func
	// Selector is a subset selection over observation values (§4.3.3).
	Selector = measure.Selector
	// Triple is one (subset selection, predicate, observation function)
	// stage.
	Triple = measure.Triple
	// StudyMeasure is an ordered triple sequence (§4.3.4).
	StudyMeasure = measure.StudyMeasure
	// Moments are the first four sample moments with shape coefficients.
	Moments = measure.Moments
	// CampaignResult is a campaign-level estimate (§4.4).
	CampaignResult = measure.CampaignResult
)

// EstimateClocks computes per-host clock bounds relative to ref from raw
// synchronization messages (§2.5). The true offset and drift are always
// inside the returned bounds, given positive delays and linear drift.
func EstimateClocks(msgs []StampedMessage, ref string) (map[string]ClockBounds, error) {
	return clocksync.EstimateAll(msgs, ref)
}

// BuildGlobalTimeline projects local timelines onto the reference timeline
// through the per-host bounds (§2.5).
func BuildGlobalTimeline(ref string, bounds map[string]ClockBounds, locals []*LocalTimeline) (*GlobalTimeline, error) {
	return analysis.Build(ref, bounds, locals)
}

// CheckExperiment verifies every recorded injection conservatively; only
// accepted experiments should enter measure estimation (§2.5).
func CheckExperiment(g *GlobalTimeline, specs map[string][]FaultSpec, opts CheckOptions) *AnalysisReport {
	return analysis.CheckExperiment(g, specs, opts)
}

// FaultSpecsOf extracts per-machine fault specifications from timelines,
// in the form CheckExperiment consumes.
func FaultSpecsOf(locals []*LocalTimeline) map[string][]FaultSpec {
	return analysis.SpecsFromLocals(locals)
}

// ParsePredicate parses a §4.3.1 predicate such as
// "((SM1, State1, 10 < t < 20) | (SM2, State2, 30 < t < 40))".
func ParsePredicate(src string) (Predicate, error) { return predicate.Parse(src) }

// ParseObservation parses a §4.3.2 observation function such as
// "count(U, B, 10, 35)" or "total_duration(T, START_EXP, END_EXP)".
func ParseObservation(src string) (ObservationFunc, error) { return observation.Parse(src) }

// ParseSelector parses a subset selection: "default", "(OBS_VALUE > 0)",
// or "(a <= OBS_VALUE <= b)".
func ParseSelector(src string) (Selector, error) { return measure.ParseSelector(src) }

// NewStudyMeasure builds a validated study measure from triples (§4.3.4).
func NewStudyMeasure(name string, triples ...Triple) (*StudyMeasure, error) {
	return measure.NewStudyMeasure(name, triples...)
}

// ComputeMoments computes the first four moments, skewness, and kurtosis
// of a sample (§4.4.1).
func ComputeMoments(values []float64) Moments { return measure.ComputeMoments(values) }

// SimpleSampling pools all studies' observation values into one sample
// (§4.4.1).
func SimpleSampling(studies ...[]float64) CampaignResult {
	return measure.SimpleSampling(studies...)
}

// Coverage is the §5.8 stratified-weighted overall coverage:
// sum(w_i*c_i)/sum(w_i).
func Coverage(coverages, rates []float64) (float64, error) {
	return measure.Coverage(coverages, rates)
}
