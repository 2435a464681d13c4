// Package observation implements Loki's observation functions (thesis
// §4.3.2): count, outcome, duration, instant, and total_duration, plus
// user-defined functions. An observation function reduces a predicate value
// timeline to a single value — the observation function value — which the
// measure layer (internal/measure) selects on and aggregates.
//
// All returned time quantities are in milliseconds, the unit the thesis's
// examples use; counts and outcomes are dimensionless.
package observation

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/vclock"
)

// Env carries the per-experiment macro values START_EXP and END_EXP
// (§5.8: "Loki macros that take the values of the beginning time and ending
// time of the current experiment").
type Env struct {
	StartExp vclock.Ticks
	EndExp   vclock.Ticks
}

// Func is an observation function.
type Func interface {
	// Apply reduces a predicate value timeline to an observation value.
	Apply(p predicate.PVT, env Env) float64
	// String renders the function in the thesis's source syntax.
	String() string
}

// Dir selects up transitions, down transitions, or both (the <U, D, B>
// argument of count and instant).
type Dir int

// Direction selectors.
const (
	Up Dir = iota + 1
	Down
	BothDirs
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Up:
		return "U"
	case Down:
		return "D"
	case BothDirs:
		return "B"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Class selects impulses, steps, or both (the <I, S, B> argument).
type Class int

// Class selectors.
const (
	Impulses Class = iota + 1
	Steps
	BothClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Impulses:
		return "I"
	case Steps:
		return "S"
	case BothClasses:
		return "B"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// TF selects the true or false phase (the <T, F> argument of duration and
// total_duration).
type TF int

// Truth-phase selectors.
const (
	TruePhase TF = iota + 1
	FalsePhase
)

// String implements fmt.Stringer.
func (v TF) String() string {
	switch v {
	case TruePhase:
		return "T"
	case FalsePhase:
		return "F"
	default:
		return fmt.Sprintf("TF(%d)", int(v))
	}
}

// Bound is a time argument: either a literal or one of the experiment
// macros.
type Bound struct {
	Macro string       // "", "START_EXP", or "END_EXP"
	Value vclock.Ticks // used when Macro is ""
}

// LitMillis returns a literal bound from milliseconds.
func LitMillis(ms float64) Bound { return Bound{Value: vclock.FromMillis(ms)} }

// StartExp is the START_EXP macro bound.
func StartExp() Bound { return Bound{Macro: "START_EXP"} }

// EndExp is the END_EXP macro bound.
func EndExp() Bound { return Bound{Macro: "END_EXP"} }

// Resolve evaluates the bound under env.
func (b Bound) Resolve(env Env) vclock.Ticks {
	switch b.Macro {
	case "START_EXP":
		return env.StartExp
	case "END_EXP":
		return env.EndExp
	default:
		return b.Value
	}
}

// String implements fmt.Stringer, rendering literals in milliseconds.
func (b Bound) String() string {
	if b.Macro != "" {
		return b.Macro
	}
	return fmt.Sprintf("%g", b.Value.Millis())
}

func matches(tr predicate.Transition, d Dir, c Class) bool {
	if d == Up && !tr.Up || d == Down && tr.Up {
		return false
	}
	if c == Impulses && tr.Class != predicate.Impulse || c == Steps && tr.Class != predicate.Step {
		return false
	}
	return true
}

// Count is count(<U,D,B>, <I,S,B>, START, END): the number of matching
// transitions in the window.
type Count struct {
	Dir        Dir
	Class      Class
	Start, End Bound
}

// Apply implements Func.
func (c Count) Apply(p predicate.PVT, env Env) float64 {
	start, end := c.Start.Resolve(env), c.End.Resolve(env)
	n := 0
	for _, tr := range p.Transitions(start, end) {
		if matches(tr, c.Dir, c.Class) {
			n++
		}
	}
	return float64(n)
}

// String implements Func.
func (c Count) String() string {
	return fmt.Sprintf("count(%s, %s, %s, %s)", c.Dir, c.Class, c.Start, c.End)
}

// Outcome is outcome(t): 1 if the predicate value at instant t is true,
// else 0.
type Outcome struct {
	At Bound
}

// Apply implements Func.
func (o Outcome) Apply(p predicate.PVT, env Env) float64 {
	if p.Value(o.At.Resolve(env)) {
		return 1
	}
	return 0
}

// String implements Func.
func (o Outcome) String() string { return fmt.Sprintf("outcome(%s)", o.At) }

// Duration is duration(<T,F>, x, START, END): the time the predicate stays
// true after the x-th up transition (or stays false after the x-th down
// transition), in milliseconds. Zero when fewer than x transitions occur.
// An impulse's true-phase lasts zero unless it occurs inside a step.
type Duration struct {
	Phase      TF
	X          int
	Start, End Bound
}

// Apply implements Func.
func (d Duration) Apply(p predicate.PVT, env Env) float64 {
	start, end := d.Start.Resolve(env), d.End.Resolve(env)
	wantUp := d.Phase == TruePhase
	n := 0
	for _, tr := range p.Transitions(start, end) {
		if tr.Up != wantUp {
			continue
		}
		n++
		if n < d.X {
			continue
		}
		if wantUp {
			return p.StepTrueAfter(tr.At).Millis()
		}
		return p.StepFalseAfter(tr.At, end).Millis()
	}
	return 0
}

// String implements Func.
func (d Duration) String() string {
	return fmt.Sprintf("duration(%s, %d, %s, %s)", d.Phase, d.X, d.Start, d.End)
}

// Instant is instant(<U,D,B>, <I,S,B>, x, START, END): the instant of the
// x-th matching transition, in milliseconds; zero when there are fewer than
// x (the thesis's first Fig 4.2 example returns 0 ms for a timeline with no
// impulses).
type Instant struct {
	Dir        Dir
	Class      Class
	X          int
	Start, End Bound
}

// Apply implements Func.
func (i Instant) Apply(p predicate.PVT, env Env) float64 {
	start, end := i.Start.Resolve(env), i.End.Resolve(env)
	n := 0
	for _, tr := range p.Transitions(start, end) {
		if !matches(tr, i.Dir, i.Class) {
			continue
		}
		n++
		if n == i.X {
			return tr.At.Millis()
		}
	}
	return 0
}

// String implements Func.
func (i Instant) String() string {
	return fmt.Sprintf("instant(%s, %s, %d, %s, %s)", i.Dir, i.Class, i.X, i.Start, i.End)
}

// TotalDuration is total_duration(<T,F>, START, END): the total time the
// predicate is true (or false) within the window, in milliseconds.
// Impulses have measure zero.
type TotalDuration struct {
	Phase      TF
	Start, End Bound
}

// Apply implements Func.
func (t TotalDuration) Apply(p predicate.PVT, env Env) float64 {
	start, end := t.Start.Resolve(env), t.End.Resolve(env)
	if end < start {
		return 0
	}
	trueMs := p.TotalTrue(start, end).Millis()
	if t.Phase == TruePhase {
		return trueMs
	}
	return (end - start).Millis() - trueMs
}

// String implements Func.
func (t TotalDuration) String() string {
	return fmt.Sprintf("total_duration(%s, %s, %s)", t.Phase, t.Start, t.End)
}

// User wraps an arbitrary Go function as an observation function — the
// reproduction's analogue of the thesis's "any function that can be
// compiled with a standard C compiler" (§4.3.2). Predefined functions can
// be composed inside the closure.
type User struct {
	Name string
	Fn   func(p predicate.PVT, env Env) float64
}

// Apply implements Func.
func (u User) Apply(p predicate.PVT, env Env) float64 { return u.Fn(p, env) }

// String implements Func.
func (u User) String() string {
	if u.Name != "" {
		return u.Name
	}
	return "user()"
}
