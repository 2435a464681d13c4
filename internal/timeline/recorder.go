package timeline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// Recorder is the runtime component that appends records to a node's local
// timeline (§3.5.6). It timestamps with the clock of the host the node
// currently runs on and is safe for concurrent use: the probe thread, the
// transport, and the local daemon's watchdog may all record.
//
// The zero Recorder is detached and drops records. One Recorder serves
// every start of a node definition on a runtime: Start binds it to each
// start's timeline, Detach releases the timeline to its reader.
type Recorder struct {
	mu    sync.Mutex
	local *Local // nil while detached
	host  string
	// clock is set under mu but read without it: Now takes no lock.
	clock atomic.Pointer[vclock.Clock]
}

// Start binds the recorder to a timeline (possibly one with entries, when
// a node restarts) running on host with its clock. The host is interned
// into the timeline's host list and a HOST_CHANGE record is appended,
// carrying the placement information off-line clock synchronization needs
// (§3.6.3).
func (r *Recorder) Start(local *Local, host string, clock *vclock.Clock) {
	r.mu.Lock()
	r.local, r.host = local, host
	r.clock.Store(clock)
	r.internHost(host)
	r.mu.Unlock()
	r.add(Entry{Kind: HostChange}, true)
}

// Detach releases the timeline: records made from now until the next
// Start are dropped, so whoever the timeline is handed to may read it
// while stragglers of the finished experiment still hold the recorder.
func (r *Recorder) Detach() {
	r.mu.Lock()
	r.local = nil
	r.mu.Unlock()
}

func (r *Recorder) internHost(host string) {
	for _, h := range r.local.Hosts {
		if h == host {
			return
		}
	}
	r.local.Hosts = append(r.local.Hosts, host)
}

// add appends e attributed to the bound host, stamped from its clock when
// stamp is set; detached, it drops e.
func (r *Recorder) add(e Entry, stamp bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local == nil {
		return
	}
	e.Host = r.host
	if stamp {
		e.Time = r.clock.Load().Now()
	}
	r.local.Entries = append(r.local.Entries, e)
}

// Now reads the recorder's clock (the local clock of the host it was last
// started on).
func (r *Recorder) Now() vclock.Ticks { return r.clock.Load().Now() }

// RecordStateChange logs a transition into newState caused by event, at the
// given local time (the time must be captured where the event occurred, as
// the probe does, not when the record is written).
func (r *Recorder) RecordStateChange(event, newState string, at vclock.Ticks) {
	r.add(Entry{Kind: StateChange, Event: event, NewState: newState, Time: at}, false)
}

// RecordInjection logs the injection of fault at the given local time,
// which the probe returns from its InjectFault (§3.5.7).
func (r *Recorder) RecordInjection(fault string, at vclock.Ticks) {
	r.add(Entry{Kind: FaultInjection, Fault: fault, Time: at}, false)
}

// RecordNote logs a free-form user message (§3.5.6).
func (r *Recorder) RecordNote(text string) {
	r.add(Entry{Kind: Note, Text: text}, true)
}

// Snapshot returns a copy of the timeline safe to read concurrently with
// further recording — nil while detached. Only the entries and the host
// list grow while a node runs; the other header lists are shared.
func (r *Recorder) Snapshot() *Local {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local == nil {
		return nil
	}
	cp := *r.local
	cp.Entries = slices.Clone(r.local.Entries)
	cp.Hosts = slices.Clone(r.local.Hosts)
	return &cp
}

// String summarizes the recorder for debugging.
func (r *Recorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local == nil {
		return fmt.Sprintf("Recorder(detached, %s)", r.host)
	}
	return fmt.Sprintf("Recorder(%s on %s, %d entries)", r.local.Owner, r.host, len(r.local.Entries))
}
