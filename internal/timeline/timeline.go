// Package timeline implements Loki's local timelines: the per-node record of
// state changes and fault injections with their local-clock occurrence
// times (thesis §3.5.6), including the indexed on-disk format with 64-bit
// times split into Hi/Lo 32-bit halves.
//
// Extensions over the thesis's record grammar, both needed by features the
// thesis describes in prose: a HOST_CHANGE record carrying the host a
// (re)started node runs on (§3.6.3 says restart records include the host
// name, used by off-line clock synchronization), and a NOTE record for the
// user messages §3.5.6 says the recorder accepts.
package timeline

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/faultexpr"
	"repro/internal/vclock"
)

// Kind discriminates local timeline records. StateChange and FaultInjection
// carry the thesis's numerical constants 0 and 1 (§3.5.6).
type Kind int

// Record kinds.
const (
	StateChange    Kind = 0
	FaultInjection Kind = 1
	HostChange     Kind = 2
	Note           Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case StateChange:
		return "STATE_CHANGE"
	case FaultInjection:
		return "FAULT_INJECTION"
	case HostChange:
		return "HOST_CHANGE"
	case Note:
		return "NOTE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Entry is one local timeline record. Time is a reading of the local clock
// of Host at the moment of the event.
type Entry struct {
	Kind Kind
	// Event and NewState are set for StateChange records.
	Event    string
	NewState string
	// Fault is set for FaultInjection records.
	Fault string
	// Host is the host whose clock timestamped this entry. For HostChange
	// records it is the new host.
	Host string
	// Text is set for Note records.
	Text string
	// Time is the local-clock timestamp.
	Time vclock.Ticks
}

// Meta is the header of a local timeline: the name tables that let records
// be stored as compact indices (§3.5.6 explains the indices "make the local
// timeline compact and decrease intrusion").
type Meta struct {
	// Owner is mySMNickName: the state machine this timeline belongs to.
	Owner string
	// Machines is the state_machine_list in index order.
	Machines []string
	// GlobalStates is the global_state_list in index order.
	GlobalStates []string
	// Events is the event_list in index order.
	Events []string
	// Faults is the fault_list in index order.
	Faults []faultexpr.Spec
	// Hosts is the host_list in index order (reproduction extension).
	Hosts []string
}

// Local is a complete local timeline.
type Local struct {
	Meta
	Entries []Entry
}

// LastState returns the final state recorded, if any.
func (l *Local) LastState() (string, bool) {
	for i := len(l.Entries) - 1; i >= 0; i-- {
		if l.Entries[i].Kind == StateChange {
			return l.Entries[i].NewState, true
		}
	}
	return "", false
}

// Validate checks that every entry's names resolve against the header
// tables, which is what the on-disk index encoding requires, and that every
// fault has an expression to write.
func (l *Local) Validate() error {
	for i, f := range l.Faults {
		if f.Expr == nil {
			return fmt.Errorf("timeline: fault %d (%q) has no expression", i, f.Name)
		}
	}
	for i, e := range l.Entries {
		switch e.Kind {
		case StateChange:
			if indexOf(l.Events, e.Event) < 0 {
				return fmt.Errorf("timeline: entry %d: unknown event %q", i, e.Event)
			}
			if indexOf(l.GlobalStates, e.NewState) < 0 {
				return fmt.Errorf("timeline: entry %d: unknown state %q", i, e.NewState)
			}
		case FaultInjection:
			if l.faultIndex(e.Fault) < 0 {
				return fmt.Errorf("timeline: entry %d: unknown fault %q", i, e.Fault)
			}
		case HostChange, Note:
			// No table constraints beyond host, handled below.
		default:
			return fmt.Errorf("timeline: entry %d: invalid kind %d", i, int(e.Kind))
		}
		if e.Host != "" && indexOf(l.Hosts, e.Host) < 0 {
			return fmt.Errorf("timeline: entry %d: unknown host %q", i, e.Host)
		}
	}
	return nil
}

func (l *Local) faultIndex(name string) int {
	for i, f := range l.Faults {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

// Store is the shared repository of local timelines, standing in for the
// NFS mount the thesis requires (§3.8): a restarted node looks its old
// timeline up by nickname to discover it is a restart (§3.6.3).
// Store is safe for concurrent use via external synchronization in the
// runtime; the type itself is a plain map wrapper used single-threaded in
// analysis.
type Store struct {
	timelines map[string]*Local
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{timelines: make(map[string]*Local)} }

// Get returns the timeline for nickname, or nil.
func (s *Store) Get(nickname string) *Local { return s.timelines[nickname] }

// Put stores tl under its owner's nickname.
func (s *Store) Put(tl *Local) { s.timelines[tl.Owner] = tl }

// Names returns the stored nicknames, sorted.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.timelines))
	for n := range s.timelines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AppendAll appends every stored timeline to dst, ordered by nickname,
// and returns the extended slice.
func (s *Store) AppendAll(dst []*Local) []*Local {
	n := len(dst)
	dst = slices.Grow(dst, len(s.timelines))
	for _, l := range s.timelines {
		dst = append(dst, l)
	}
	slices.SortFunc(dst[n:], func(a, b *Local) int { return strings.Compare(a.Owner, b.Owner) })
	return dst
}

// Reset drops all stored timelines (between experiments).
func (s *Store) Reset() { clear(s.timelines) }
