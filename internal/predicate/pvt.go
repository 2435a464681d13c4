// Package predicate implements Loki's predicate language for querying
// global timelines (thesis §4.3.1) and the predicate value timelines it
// produces.
//
// A predicate is a Boolean combination of tuples. State tuples —
// (machine, state) and (machine, state, time) — contribute *steps*: periods
// during which the machine occupies the state. Event tuples —
// (machine, state, event) and (machine, state, event, time) — contribute
// *impulses*: isolated instants at which the event occurred in the state.
// The resulting predicate value timeline "contains a combination of
// impulses and steps" (§4.3.1), and the observation functions of §4.3.2
// count and measure the two classes separately or together.
//
// Semantics notes (documented here because the thesis leaves them implicit):
// impulses retain their identity even when they occur during a step-true
// period (the thesis's Fig 4.2 third example counts an impulse inside a
// step); negation treats impulse instants as measure-zero, so NOT applies
// to the step component and drops impulses (the thesis never negates event
// tuples).
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vclock"
)

// Span is a half-open step interval [Lo, Hi) of step-truth.
type Span struct {
	Lo, Hi vclock.Ticks
}

// PVT is a predicate value timeline: disjoint sorted step spans plus sorted
// impulse instants. Impulses may fall inside steps.
type PVT struct {
	steps    []Span
	impulses []vclock.Ticks
}

// NewPVT builds a timeline from raw spans and impulses, normalizing both
// (sorting, merging overlapping spans, deduplicating impulses). Empty or
// inverted spans are dropped.
func NewPVT(steps []Span, impulses []vclock.Ticks) PVT {
	return PVT{steps: normalizeSpans(steps), impulses: normalizeImpulses(impulses)}
}

func normalizeSpans(in []Span) []Span {
	var spans []Span
	for _, s := range in {
		if s.Hi > s.Lo {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	var out []Span
	for _, s := range spans {
		if n := len(out); n > 0 && s.Lo <= out[n-1].Hi {
			if s.Hi > out[n-1].Hi {
				out[n-1].Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

func normalizeImpulses(in []vclock.Ticks) []vclock.Ticks {
	imps := append([]vclock.Ticks(nil), in...)
	sort.Slice(imps, func(i, j int) bool { return imps[i] < imps[j] })
	var out []vclock.Ticks
	for i, t := range imps {
		if i > 0 && t == imps[i-1] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Steps returns the step spans (defensive copy).
func (p PVT) Steps() []Span { return append([]Span(nil), p.steps...) }

// Impulses returns the impulse instants (defensive copy).
func (p PVT) Impulses() []vclock.Ticks { return append([]vclock.Ticks(nil), p.impulses...) }

// InStep reports whether t lies inside a step span.
func (p PVT) InStep(t vclock.Ticks) bool {
	i := sort.Search(len(p.steps), func(k int) bool { return p.steps[k].Hi > t })
	return i < len(p.steps) && p.steps[i].Lo <= t
}

// AtImpulse reports whether t is exactly an impulse instant.
func (p PVT) AtImpulse(t vclock.Ticks) bool {
	i := sort.Search(len(p.impulses), func(k int) bool { return p.impulses[k] >= t })
	return i < len(p.impulses) && p.impulses[i] == t
}

// Value is the §4.3.2 "outcome": the predicate value at instant t.
func (p PVT) Value(t vclock.Ticks) bool { return p.InStep(t) || p.AtImpulse(t) }

// Or returns the pointwise disjunction.
func (p PVT) Or(q PVT) PVT {
	return NewPVT(append(p.Steps(), q.steps...), append(p.Impulses(), q.impulses...))
}

// And returns the pointwise conjunction. Step∧step intersects spans. An
// impulse survives when the other side is true at its instant (inside the
// other's step, or a coincident impulse).
func (p PVT) And(q PVT) PVT {
	steps := intersectSpans(p.steps, q.steps)
	var impulses []vclock.Ticks
	for _, t := range p.impulses {
		if q.Value(t) {
			impulses = append(impulses, t)
		}
	}
	for _, t := range q.impulses {
		if p.Value(t) {
			impulses = append(impulses, t)
		}
	}
	return NewPVT(steps, impulses)
}

func intersectSpans(a, b []Span) []Span {
	var out []Span
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := maxTicks(a[i].Lo, b[j].Lo)
		hi := minTicks(a[i].Hi, b[j].Hi)
		if hi > lo {
			out = append(out, Span{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// Not returns the complement of the step component over the horizon
// [horizonLo, horizonHi); impulses are measure-zero and dropped (see the
// package comment).
func (p PVT) Not(horizonLo, horizonHi vclock.Ticks) PVT {
	var out []Span
	cur := horizonLo
	for _, s := range p.steps {
		if s.Lo > cur {
			out = append(out, Span{Lo: cur, Hi: minTicks(s.Lo, horizonHi)})
		}
		if s.Hi > cur {
			cur = s.Hi
		}
		if cur >= horizonHi {
			break
		}
	}
	if cur < horizonHi {
		out = append(out, Span{Lo: cur, Hi: horizonHi})
	}
	return NewPVT(out, nil)
}

// Clip restricts the timeline to the window [lo, hi] (steps clipped,
// impulses outside dropped).
func (p PVT) Clip(lo, hi vclock.Ticks) PVT {
	var steps []Span
	for _, s := range p.steps {
		l, h := maxTicks(s.Lo, lo), minTicks(s.Hi, hi)
		if h > l {
			steps = append(steps, Span{Lo: l, Hi: h})
		}
	}
	var imps []vclock.Ticks
	for _, t := range p.impulses {
		if t >= lo && t <= hi {
			imps = append(imps, t)
		}
	}
	return NewPVT(steps, imps)
}

// TransitionClass says whether a transition belongs to the step or impulse
// component (the <I, S, B> selector of §4.3.2's observation functions).
type TransitionClass int

// Transition classes.
const (
	Impulse TransitionClass = iota + 1
	Step
)

// Transition is one edge of the predicate value timeline.
type Transition struct {
	At    vclock.Ticks
	Up    bool // false→true if true, true→false otherwise
	Class TransitionClass
}

// Transitions lists all edges in [start, end], ordered by time; at equal
// times, step edges precede impulse edges, and ups precede downs. Every
// impulse contributes an up and a down at its instant.
func (p PVT) Transitions(start, end vclock.Ticks) []Transition {
	var out []Transition
	for _, s := range p.steps {
		if s.Lo >= start && s.Lo <= end {
			out = append(out, Transition{At: s.Lo, Up: true, Class: Step})
		}
		if s.Hi >= start && s.Hi <= end {
			out = append(out, Transition{At: s.Hi, Up: false, Class: Step})
		}
	}
	for _, t := range p.impulses {
		if t >= start && t <= end {
			out = append(out,
				Transition{At: t, Up: true, Class: Impulse},
				Transition{At: t, Up: false, Class: Impulse})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Class != out[j].Class {
			return out[i].Class == Step
		}
		return out[i].Up && !out[j].Up
	})
	return out
}

// StepTrueAfter returns how long the step component remains true from t
// (zero when t is not inside a step).
func (p PVT) StepTrueAfter(t vclock.Ticks) vclock.Ticks {
	for _, s := range p.steps {
		if t >= s.Lo && t < s.Hi {
			return s.Hi - t
		}
	}
	return 0
}

// StepFalseAfter returns how long the step component remains false from t,
// up to horizon (horizon-t when no further step starts).
func (p PVT) StepFalseAfter(t, horizon vclock.Ticks) vclock.Ticks {
	if p.InStep(t) {
		return 0
	}
	for _, s := range p.steps {
		if s.Lo > t {
			return minTicks(s.Lo, horizon) - t
		}
	}
	if horizon > t {
		return horizon - t
	}
	return 0
}

// TotalTrue is the Lebesgue measure of step-truth within [start, end]
// (impulses contribute zero; §4.3.2's total_duration).
func (p PVT) TotalTrue(start, end vclock.Ticks) vclock.Ticks {
	var total vclock.Ticks
	for _, s := range p.steps {
		lo, hi := maxTicks(s.Lo, start), minTicks(s.Hi, end)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// String renders the timeline compactly for debugging, in milliseconds.
func (p PVT) String() string {
	var parts []string
	for _, s := range p.steps {
		parts = append(parts, fmt.Sprintf("[%g,%g)", s.Lo.Millis(), s.Hi.Millis()))
	}
	for _, t := range p.impulses {
		parts = append(parts, fmt.Sprintf("@%g", t.Millis()))
	}
	if len(parts) == 0 {
		return "PVT{}"
	}
	return "PVT{" + strings.Join(parts, " ") + "}"
}

func minTicks(a, b vclock.Ticks) vclock.Ticks {
	if a < b {
		return a
	}
	return b
}

func maxTicks(a, b vclock.Ticks) vclock.Ticks {
	if a > b {
		return a
	}
	return b
}
