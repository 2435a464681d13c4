package measure

import (
	"fmt"
	"math"
)

// CampaignKind labels a §4.4 campaign measure type: simple sampling
// (§4.4.1) or stratified weighted (§4.4.2).
type CampaignKind int

// Campaign measure types.
const (
	SimpleSamplingKind CampaignKind = iota + 1
	StratifiedWeightedKind
)

// String implements fmt.Stringer.
func (k CampaignKind) String() string {
	switch k {
	case SimpleSamplingKind:
		return "simple sampling"
	case StratifiedWeightedKind:
		return "stratified weighted"
	default:
		return fmt.Sprintf("CampaignKind(%d)", int(k))
	}
}

// CampaignResult is the outcome of a campaign measure estimation.
type CampaignResult struct {
	Kind CampaignKind
	// Moments characterizes the campaign random variable.
	Moments Moments
	// PerStudy holds each study's own sample moments (stratified kinds).
	PerStudy []Moments
}

// Mean is the headline estimate.
func (r CampaignResult) Mean() float64 { return r.Moments.M1 }

// SimpleSampling pools the final observation values of all studies into a
// single sample — "instances of the same random variable" (§4.4.1) — and
// computes its moments.
func SimpleSampling(studies ...[]float64) CampaignResult {
	var all []float64
	for _, s := range studies {
		all = append(all, s...)
	}
	return CampaignResult{Kind: SimpleSamplingKind, Moments: ComputeMoments(all)}
}

// StratifiedWeighted treats each study as its own random variable and
// combines the per-study moments with normalized weights (§4.4.2):
// the mean is sum p_i * m1_i and, under the thesis's cross-study
// independence assumption, central moments combine as mu_k = sum p_i *
// mu_k,i. Weights must be non-negative with a positive sum; they are
// normalized internally (the thesis's p_i are "normalized weights").
func StratifiedWeighted(studies [][]float64, weights []float64) (CampaignResult, error) {
	if len(studies) == 0 {
		return CampaignResult{}, fmt.Errorf("measure: stratified weighted needs at least one study")
	}
	if len(weights) != len(studies) {
		return CampaignResult{}, fmt.Errorf("measure: %d weights for %d studies", len(weights), len(studies))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return CampaignResult{}, fmt.Errorf("measure: negative weight %v", w)
		}
		sum += w
	}
	if sum <= 0 {
		return CampaignResult{}, fmt.Errorf("measure: weights sum to zero")
	}

	res := CampaignResult{Kind: StratifiedWeightedKind}
	var combined Moments
	for i, s := range studies {
		mi := ComputeMoments(s)
		res.PerStudy = append(res.PerStudy, mi)
		p := weights[i] / sum
		combined.N += mi.N
		combined.M1 += p * mi.M1
		combined.Mu2 += p * mi.Mu2
		combined.Mu3 += p * mi.Mu3
		combined.Mu4 += p * mi.Mu4
	}
	// Back-fill non-central moments from the combined central ones so the
	// Moments value is internally consistent.
	m1 := combined.M1
	combined.M2 = combined.Mu2 + m1*m1
	combined.M3 = combined.Mu3 + 3*combined.M2*m1 - 2*m1*m1*m1
	combined.M4 = combined.Mu4 + 4*combined.M3*m1 - 6*combined.M2*m1*m1 + 3*m1*m1*m1*m1
	if combined.Mu2 > 0 {
		combined.Beta1 = combined.Mu3 * combined.Mu3 / (combined.Mu2 * combined.Mu2 * combined.Mu2)
		combined.Beta2 = combined.Mu4 / (combined.Mu2 * combined.Mu2)
	}
	res.Moments = combined
	return res, nil
}

// Coverage is the thesis's §5.8 worked campaign measure: the overall
// fault-tolerance coverage c = sum(w_i*c_i)/sum(w_i) given per-study
// coverages (study measure means) and fault occurrence rates as weights.
// It is a StratifiedWeighted measure provided as a named convenience.
func Coverage(coverages []float64, rates []float64) (float64, error) {
	if len(coverages) != len(rates) || len(coverages) == 0 {
		return 0, fmt.Errorf("measure: coverage needs matching non-empty coverages and rates")
	}
	studies := make([][]float64, len(coverages))
	for i, c := range coverages {
		studies[i] = []float64{c}
	}
	res, err := StratifiedWeighted(studies, rates)
	if err != nil {
		return 0, err
	}
	return res.Mean(), nil
}
