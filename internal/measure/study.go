package measure

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/observation"
	"repro/internal/predicate"
)

// Triple is one (subset selection, predicate, observation function) stage
// of a study measure (§4.3.4).
type Triple struct {
	Select Selector
	Pred   predicate.Expr
	Obs    observation.Func
}

// String renders the triple in source syntax.
func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.Select, t.Pred, t.Obs)
}

// ParseTriple parses one triple from its three source fields. An empty
// selector, like "default", admits every experiment (Default).
func ParseTriple(sel, pred, obs string) (Triple, error) {
	var t Triple
	var err error
	t.Select = Default{}
	if strings.TrimSpace(sel) != "" {
		if t.Select, err = ParseSelector(sel); err != nil {
			return Triple{}, err
		}
	}
	if t.Pred, err = predicate.Parse(pred); err != nil {
		return Triple{}, err
	}
	if t.Obs, err = observation.Parse(obs); err != nil {
		return Triple{}, err
	}
	return t, nil
}

// StudyMeasure is an ordered sequence of triples applied to every
// experiment in a study. The output for an experiment is the final
// observation function value, if the experiment survives every subset
// selection (§4.3.4).
type StudyMeasure struct {
	Name    string
	Triples []Triple
}

// NewStudyMeasure validates and builds a study measure. The first triple's
// selector must admit all experiments; the thesis expresses this by making
// it "default".
func NewStudyMeasure(name string, triples ...Triple) (*StudyMeasure, error) {
	if len(triples) == 0 {
		return nil, fmt.Errorf("measure: study measure %q needs at least one triple", name)
	}
	for i, t := range triples {
		if t.Select == nil || t.Pred == nil || t.Obs == nil {
			return nil, fmt.Errorf("measure: study measure %q triple %d has nil component", name, i)
		}
	}
	if _, ok := triples[0].Select.(Default); !ok {
		return nil, fmt.Errorf("measure: study measure %q: first triple's selection must be default (§4.3.4)", name)
	}
	return &StudyMeasure{Name: name, Triples: triples}, nil
}

// Apply evaluates the measure on one experiment's global timeline. selected
// is false when a subset selection drops the experiment, which removes it
// "from further consideration in the measure estimation process" (§4.2).
func (m *StudyMeasure) Apply(g *analysis.Global) (value float64, selected bool) {
	span, ok := g.Span()
	if !ok {
		return 0, false
	}
	env := observation.Env{StartExp: span.Lo, EndExp: span.Hi}
	var prev float64
	hasPrev := false
	for _, t := range m.Triples {
		if !t.Select.Select(prev, hasPrev) {
			return 0, false
		}
		pvt := predicate.Evaluate(t.Pred, g)
		prev = t.Obs.Apply(pvt, env)
		hasPrev = true
	}
	return prev, true
}

// ApplyAll evaluates the measure on every experiment of a study and returns
// the final observation values of the surviving experiments.
func (m *StudyMeasure) ApplyAll(experiments []*analysis.Global) []float64 {
	var out []float64
	for _, g := range experiments {
		if v, ok := m.Apply(g); ok {
			out = append(out, v)
		}
	}
	return out
}

// String renders the full measure as an ordered triple sequence.
func (m *StudyMeasure) String() string {
	parts := make([]string, len(m.Triples))
	for i, t := range m.Triples {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
