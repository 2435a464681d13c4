// Package analysis implements Loki's analysis phase (thesis §2.5, §5.7):
// local timelines are projected through off-line clock synchronization
// bounds onto a single global (reference) timeline, and every fault
// injection is conservatively checked to have occurred in the intended
// global state. Experiments with any unprovable injection are discarded —
// the thesis's guarantee is that no experiment with an incorrect injection
// is mistakenly deemed correct.
package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/clocksync"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// Interval is a conservative time interval on the reference timeline:
// the true instant lies in [Lo, Hi].
type Interval struct {
	Lo, Hi vclock.Ticks
}

// Mid returns the interval midpoint, which Fig. 4.2 uses for display and
// the measure phase uses as the event's nominal time.
func (iv Interval) Mid() vclock.Ticks { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.3f, %.3f]ms", iv.Lo.Millis(), iv.Hi.Millis())
}

// Event is one row of the global timeline. For state changes, State is the
// state entered (the "Begin State" column of the thesis's Fig. 4.2 global
// timeline) and Event the local event that caused the transition; for
// injections, Fault names the injected fault.
type Event struct {
	Machine string
	Kind    timeline.Kind
	State   string
	Event   string
	Fault   string
	Host    string
	// Local is the original local-clock reading.
	Local vclock.Ticks
	// Ref is the conservative reference-timeline interval for the event.
	Ref Interval
}

// Global is the single global timeline of one experiment (§2.5).
type Global struct {
	// Reference is the host whose clock defines the timeline.
	Reference string
	// Events holds all machines' projected events, ordered by interval
	// midpoint (ties broken by machine name for determinism).
	Events []Event
	// Machines lists the state machines present, sorted.
	Machines []string
}

// Build projects every local timeline onto the reference timeline using the
// per-host synchronization bounds. Every host appearing in any timeline
// must have bounds; otherwise Build fails rather than guess.
//
// Ordering is by interval midpoint, ties broken by machine name. Local
// timelines are recorded in clock order and project through per-host
// affine bounds, so each machine's projected list is already sorted except
// across a mid-experiment host change; the global order therefore comes
// from a k-way merge of the per-machine lists with precomputed midpoints
// rather than a full sort of the concatenation.
func Build(ref string, bounds map[string]clocksync.Bounds, locals []*timeline.Local) (*Global, error) {
	return new(Checker).Build(ref, bounds, locals)
}

// Build is the package-level Build on c's scratch: the per-machine event
// lists are windows of one buffer, merged into the Global's own Events.
func (c *Checker) Build(ref string, bounds map[string]clocksync.Bounds, locals []*timeline.Local) (*Global, error) {
	g := &Global{Reference: ref}
	if c.seen == nil {
		c.seen = make(map[string]bool, len(locals))
	}
	clear(c.seen)
	// The buffer has room for every entry before any window is taken, so
	// no append below moves it out from under an earlier machine's list.
	total := 0
	for _, l := range locals {
		total += len(l.Entries)
	}
	buf := slices.Grow(c.buf[:0], total)
	c.buf = buf
	lists := slices.Grow(c.lists[:0], len(locals))
	if len(locals) > 0 {
		g.Machines = make([]string, 0, len(locals))
	}
	for _, l := range locals {
		if l.Owner == "" {
			return nil, fmt.Errorf("analysis: local timeline without owner")
		}
		if c.seen[l.Owner] {
			return nil, fmt.Errorf("analysis: duplicate timeline for machine %q", l.Owner)
		}
		c.seen[l.Owner] = true
		g.Machines = append(g.Machines, l.Owner)
		start := len(buf)
		sorted := true
		for i, e := range l.Entries {
			if e.Kind == timeline.HostChange || e.Kind == timeline.Note {
				continue
			}
			if e.Host == "" {
				return nil, fmt.Errorf("analysis: %s entry %d has no host attribution", l.Owner, i)
			}
			b, ok := bounds[e.Host]
			if !ok {
				return nil, fmt.Errorf("analysis: no clock bounds for host %q (machine %s)", e.Host, l.Owner)
			}
			lo, hi := b.Project(e.Time)
			ev := Event{
				Machine: l.Owner,
				Kind:    e.Kind,
				State:   e.NewState,
				Event:   e.Event,
				Fault:   e.Fault,
				Host:    e.Host,
				Local:   e.Time,
				Ref:     Interval{Lo: lo, Hi: hi},
			}
			if len(buf) > start && ev.Ref.Mid() < buf[len(buf)-1].Ref.Mid() {
				sorted = false
			}
			buf = append(buf, ev)
		}
		events := buf[start:len(buf):len(buf)]
		if !sorted {
			// Only possible when the machine moved hosts mid-experiment
			// (restart on another host): different bounds, different order.
			slices.SortStableFunc(events, func(a, b Event) int {
				return cmp.Compare(a.Ref.Mid(), b.Ref.Mid())
			})
		}
		if len(events) > 0 {
			lists = append(lists, events)
		}
	}
	c.lists = lists
	sort.Strings(g.Machines)
	g.Events = c.mergeEventLists(lists, len(buf))
	return g, nil
}

// mergeHead is one merge cursor: the midpoint of the list's current head
// (precomputed so the heap never recomputes it) plus the list identity.
// Each list holds exactly one machine's events, so the machine tie-break
// never has to compare within a list and in-list order is preserved —
// byte-for-byte the order sort.SliceStable produced over the concatenation.
type mergeHead struct {
	mid     vclock.Ticks
	machine string
	list    int
	pos     int
}

func headLess(a, b mergeHead) bool {
	if a.mid != b.mid {
		return a.mid < b.mid
	}
	return a.machine < b.machine
}

// mergeEventLists k-way merges per-machine event lists, each sorted by
// interval midpoint, into a new list ordered by (midpoint, machine). The
// lists are c's scratch; the result never aliases them.
func (c *Checker) mergeEventLists(lists [][]Event, total int) []Event {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return slices.Clone(lists[0])
	}
	heap := slices.Grow(c.heap[:0], len(lists))
	for i, l := range lists {
		heap = append(heap, mergeHead{mid: l[0].Ref.Mid(), machine: l[0].Machine, list: i, pos: 0})
	}
	c.heap = heap
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]Event, 0, total)
	for len(heap) > 0 {
		h := heap[0]
		l := lists[h.list]
		out = append(out, l[h.pos])
		if h.pos+1 < len(l) {
			heap[0].pos = h.pos + 1
			heap[0].mid = l[h.pos+1].Ref.Mid()
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return out
}

func siftDown(h []mergeHead, i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h) && headLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && headLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// MachineEvents returns the events of one machine, in timeline order.
func (g *Global) MachineEvents(machine string) []Event {
	var out []Event
	for _, e := range g.Events {
		if e.Machine == machine {
			out = append(out, e)
		}
	}
	return out
}

// Span returns the [earliest Lo, latest Hi] over all events; ok is false
// for an empty timeline. The measure macros START_EXP/END_EXP use this.
func (g *Global) Span() (Interval, bool) {
	if len(g.Events) == 0 {
		return Interval{}, false
	}
	span := Interval{Lo: math.MaxInt64, Hi: math.MinInt64}
	for _, e := range g.Events {
		if e.Ref.Lo < span.Lo {
			span.Lo = e.Ref.Lo
		}
		if e.Ref.Hi > span.Hi {
			span.Hi = e.Ref.Hi
		}
	}
	return span, true
}
