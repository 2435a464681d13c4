package analysis

import (
	"math"
	"slices"
	"sort"

	"repro/internal/faultexpr"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// Tri is a three-valued truth value for conservative expression evaluation.
// Projection uncertainty means a machine's state is sometimes unknowable;
// the checker must only accept injections whose expressions are *provably*
// true (§2.5: Loki "conservatively assumes" incorrectness when in doubt).
type Tri int

// Truth values (Kleene three-valued logic).
const (
	False Tri = iota
	Unknown
	True
)

// String implements fmt.Stringer.
func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

func triNot(a Tri) Tri { return True - a + False } // swaps True/False, keeps Unknown

func triAnd(a, b Tri) Tri {
	if a < b {
		return a
	}
	return b
}

func triOr(a, b Tri) Tri {
	if a > b {
		return a
	}
	return b
}

// certainSpan is a period during which a machine is provably in State:
// from the upper bound of the entering transition to the lower bound of the
// next transition (§2.5's check construction).
type certainSpan struct {
	state  string
	lo, hi vclock.Ticks
}

// Stateline holds, for every machine, the periods of provable state
// occupancy derived from a global timeline, plus the raw per-machine state
// changes for same-clock exact comparison.
type Stateline struct {
	spans   map[string][]certainSpan
	changes map[string][]Event
	// breakpoints are all span boundaries, for piecewise evaluation.
	breakpoints []vclock.Ticks
}

// NewStateline derives provable occupancy from g. After a machine's final
// recorded transition it provably remains in that state (transitions at the
// chosen abstraction level are exactly the recorded ones).
func NewStateline(g *Global) *Stateline {
	s := &Stateline{
		spans:   make(map[string][]certainSpan, len(g.Machines)),
		changes: make(map[string][]Event, len(g.Machines)),
	}
	// Every machine's changes and spans are windows of one array each,
	// sized by the timeline's state changes.
	total := 0
	for _, e := range g.Events {
		if e.Kind == timeline.StateChange {
			total++
		}
	}
	changeBuf := make([]Event, 0, total)
	spanBuf := make([]certainSpan, 0, total)
	s.breakpoints = make([]vclock.Ticks, 0, 2*total)
	for _, m := range g.Machines {
		start := len(changeBuf)
		for _, e := range g.Events {
			if e.Machine == m && e.Kind == timeline.StateChange {
				changeBuf = append(changeBuf, e)
			}
		}
		changes := changeBuf[start:len(changeBuf):len(changeBuf)]
		if len(changes) > 0 {
			s.changes[m] = changes
		}
		first := len(spanBuf)
		for i, e := range changes {
			lo := e.Ref.Hi
			hi := vclock.Ticks(math.MaxInt64)
			if i+1 < len(changes) {
				hi = changes[i+1].Ref.Lo
			}
			if hi < lo {
				// Uncertainty windows overlap: no provable occupancy.
				continue
			}
			spanBuf = append(spanBuf, certainSpan{state: e.State, lo: lo, hi: hi})
			s.breakpoints = append(s.breakpoints, lo)
			if hi != math.MaxInt64 {
				s.breakpoints = append(s.breakpoints, hi)
			}
		}
		if len(spanBuf) > first {
			s.spans[m] = spanBuf[first:len(spanBuf):len(spanBuf)]
		}
	}
	slices.Sort(s.breakpoints)
	s.breakpoints = slices.Compact(s.breakpoints)
	return s
}

// StateAt returns the provable state of machine at time t: (state, True) if
// provably in state, ("", Unknown) inside an uncertainty window or before
// the first provable span.
func (s *Stateline) StateAt(machine string, t vclock.Ticks) (string, Tri) {
	for _, sp := range s.spans[machine] {
		if t >= sp.lo && t <= sp.hi {
			return sp.state, True
		}
		if t < sp.lo {
			break
		}
	}
	return "", Unknown
}

// EvalAt evaluates a fault expression at time t in three-valued logic: an
// atom (M:S) is True if M is provably in S, False if M is provably in some
// other state, and Unknown inside uncertainty windows.
func (s *Stateline) EvalAt(e faultexpr.Expr, t vclock.Ticks) Tri {
	switch x := e.(type) {
	case faultexpr.Atom:
		state, known := s.StateAt(x.Machine, t)
		if known != True {
			return Unknown
		}
		if state == x.State {
			return True
		}
		return False
	case faultexpr.Not:
		return triNot(s.EvalAt(x.X, t))
	case faultexpr.And:
		return triAnd(s.EvalAt(x.L, t), s.EvalAt(x.R, t))
	case faultexpr.Or:
		return triOr(s.EvalAt(x.L, t), s.EvalAt(x.R, t))
	default:
		return Unknown
	}
}

// ExactStateAt returns the machine's state at local-clock time local on
// host, valid only when every state change of the machine was recorded by
// that same host's clock: readings of one monotone clock order exactly, so
// projection uncertainty cancels (this is what makes self-triggered faults
// like the thesis's bfault1 checkable at all — the injection follows its
// triggering state entry by microseconds, far inside any projection
// bounds). ok is false when the machine ran on multiple hosts, on a
// different host, or when the comparison is ambiguous (equal timestamps).
// Before its first state change a machine is in the reserved BEGIN state.
func (s *Stateline) ExactStateAt(machine, host string, local vclock.Ticks) (string, bool) {
	changes := s.changes[machine]
	if len(changes) == 0 {
		return "", false
	}
	state := "BEGIN"
	for _, c := range changes {
		if c.Host != host {
			return "", false
		}
		if c.Local == local {
			// Simultaneous records on one clock: order unknowable.
			return "", false
		}
		if c.Local < local {
			state = c.State
		}
	}
	return state, true
}

// CheckInjection reports whether expr is provably true at the (unknown)
// true instant of the injection event inj. Atoms over machines whose every
// state change shares the injection's recording clock are compared exactly
// at the injection's local time; all other atoms are evaluated
// conservatively (three-valued) across every breakpoint segment of the
// injection's projected interval.
func (s *Stateline) CheckInjection(e faultexpr.Expr, inj Event) bool {
	for _, p := range s.samplePoints(inj.Ref) {
		if s.evalMixed(e, inj, p) != True {
			return false
		}
	}
	return true
}

func (s *Stateline) evalMixed(e faultexpr.Expr, inj Event, at vclock.Ticks) Tri {
	switch x := e.(type) {
	case faultexpr.Atom:
		if state, ok := s.ExactStateAt(x.Machine, inj.Host, inj.Local); ok {
			if state == x.State {
				return True
			}
			return False
		}
		state, known := s.StateAt(x.Machine, at)
		if known != True {
			return Unknown
		}
		if state == x.State {
			return True
		}
		return False
	case faultexpr.Not:
		return triNot(s.evalMixed(x.X, inj, at))
	case faultexpr.And:
		return triAnd(s.evalMixed(x.L, inj, at), s.evalMixed(x.R, inj, at))
	case faultexpr.Or:
		return triOr(s.evalMixed(x.L, inj, at), s.evalMixed(x.R, inj, at))
	default:
		return Unknown
	}
}

// samplePoints returns the endpoints of iv plus a point inside each
// breakpoint segment, enough to decide piecewise-constant truth throughout.
func (s *Stateline) samplePoints(iv Interval) []vclock.Ticks {
	points := []vclock.Ticks{iv.Lo, iv.Hi}
	i := sort.Search(len(s.breakpoints), func(k int) bool { return s.breakpoints[k] > iv.Lo })
	for ; i < len(s.breakpoints) && s.breakpoints[i] < iv.Hi; i++ {
		bp := s.breakpoints[i]
		points = append(points, bp)
		if bp+1 < iv.Hi {
			points = append(points, bp+1)
		}
	}
	return points
}

// ProvablyTrueThroughout reports whether e is provably true at every
// instant of iv using projected bounds only (no same-clock shortcut).
// State occupancy is piecewise constant between breakpoints, so evaluating
// at iv's endpoints and at one point inside each breakpoint segment is
// exact.
func (s *Stateline) ProvablyTrueThroughout(e faultexpr.Expr, iv Interval) bool {
	for _, p := range s.samplePoints(iv) {
		if s.EvalAt(e, p) != True {
			return false
		}
	}
	return true
}
