package analysis

import (
	"math"
	"slices"

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
// changes for same-clock exact comparison. A Checker keeps one and derives
// it afresh for every Global it checks: the maps are cleared, and the
// slices are windows of buffers kept for the next Global.
type Stateline struct {
	spans   map[string][]certainSpan
	changes map[string][]Event
	// breakpoints are all span boundaries, for piecewise evaluation.
	breakpoints []vclock.Ticks

	// ends[i] is where the state changes of g.Machines[i] end in
	// changeBuf. changeBuf and spanBuf back every machine's changes and
	// spans; points backs samplePoints' result.
	ends      []int
	changeBuf []Event
	spanBuf   []certainSpan
	points    []vclock.Ticks
}

// reset derives provable occupancy from g. After a machine's final
// recorded transition it provably remains in that state (transitions at
// the chosen abstraction level are exactly the recorded ones). Events of a
// machine not listed in g.Machines are ignored.
func (s *Stateline) reset(g *Global) {
	if s.spans == nil {
		s.spans = make(map[string][]certainSpan, len(g.Machines))
		s.changes = make(map[string][]Event, len(g.Machines))
	}
	clear(s.spans)
	clear(s.changes)
	// Every machine's changes and spans are windows of one buffer each,
	// sized by the timeline's state changes: count each machine's changes,
	// then place them in timeline order. Machines are few, so finding an
	// event's machine by linear search costs less than hashing its name.
	ends := slices.Grow(s.ends[:0], len(g.Machines))[:len(g.Machines)]
	clear(ends)
	total := 0
	for _, e := range g.Events {
		if e.Kind != timeline.StateChange {
			continue
		}
		if i := slices.Index(g.Machines, e.Machine); i >= 0 {
			ends[i]++
			total++
		}
	}
	next := 0
	for i, n := range ends {
		ends[i], next = next, next+n // machine i's start, until placing moves it to its end
	}
	changeBuf := slices.Grow(s.changeBuf[:0], total)[:total]
	for _, e := range g.Events {
		if e.Kind != timeline.StateChange {
			continue
		}
		if i := slices.Index(g.Machines, e.Machine); i >= 0 {
			changeBuf[ends[i]] = e
			ends[i]++
		}
	}
	spanBuf := slices.Grow(s.spanBuf[:0], total)
	breakpoints := slices.Grow(s.breakpoints[:0], 2*total)
	start := 0
	for _, end := range ends {
		changes := changeBuf[start:end:end]
		start = end
		if len(changes) == 0 {
			continue
		}
		m := changes[0].Machine
		s.changes[m] = changes
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
			breakpoints = append(breakpoints, lo)
			if hi != math.MaxInt64 {
				breakpoints = append(breakpoints, hi)
			}
		}
		if len(spanBuf) > first {
			s.spans[m] = spanBuf[first:len(spanBuf):len(spanBuf)]
		}
	}
	slices.Sort(breakpoints)
	breakpoints = slices.Compact(breakpoints)
	s.ends, s.changeBuf, s.spanBuf, s.breakpoints = ends, changeBuf, spanBuf, breakpoints
	// An interval's sample points are its two ends plus at most two per
	// breakpoint.
	s.points = slices.Grow(s.points[:0], 2+2*len(breakpoints))
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

// samplePoints returns the endpoints of iv, every breakpoint inside it,
// and a point inside each breakpoint segment that meets iv — enough to
// decide piecewise-constant truth throughout. The segment just after Lo
// counts too when Lo is itself a breakpoint: Lo's value then says nothing
// about it. The result is s's scratch, valid until the next call.
func (s *Stateline) samplePoints(iv Interval) []vclock.Ticks {
	points := append(s.points[:0], iv.Lo, iv.Hi)
	i, _ := slices.BinarySearch(s.breakpoints, iv.Lo)
	for ; i < len(s.breakpoints) && s.breakpoints[i] < iv.Hi; i++ {
		bp := s.breakpoints[i]
		if bp > iv.Lo {
			points = append(points, bp)
		}
		if bp+1 < iv.Hi {
			points = append(points, bp+1)
		}
	}
	s.points = points
	return points
}

// ProvablyTrueThroughout reports whether e is provably true at every
// instant of iv using projected bounds only (no same-clock shortcut).
// State occupancy is constant on each open segment between consecutive
// breakpoints, and ticks are integers, so evaluating at iv's endpoints, at
// every breakpoint inside iv, and at the first tick after each breakpoint
// in [Lo, Hi) — Lo included when it is a breakpoint — visits every segment
// iv meets, and is exact.
func (s *Stateline) ProvablyTrueThroughout(e faultexpr.Expr, iv Interval) bool {
	for _, p := range s.samplePoints(iv) {
		if s.EvalAt(e, p) != True {
			return false
		}
	}
	return true
}
