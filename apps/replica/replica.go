// Package replica implements the second test application of the
// reproduction: a primary-backup replicated counter, the "replication
// scheme" the thesis uses to motivate per-replica state machines (§3.5.3).
//
// One primary applies updates and replicates them to backups; backups
// promote in priority order when the primary falls silent. The replica's
// value lives in an app.MemoryRegion, so memory faults (bit flips) can be
// injected; a replica that detects corruption fails stop through the ERROR
// event — giving campaigns a non-crash error path to measure detection
// latency and coverage on.
//
// The package is written against the public SPI (repro/app) only and
// registers itself as "replica".
package replica

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/app"
)

func init() {
	// Bus messages must survive a socket transport's gob envelope.
	app.RegisterMessage(updateMsg{}, syncReqMsg{})
	app.MustRegister("replica", app.Application{
		Spec: SpecFor,
		New:  func(p app.Params) *app.Instrumented { return New(Config{Peers: p.Peers, RunFor: p.RunFor}) },
	})
}

// Events of the replica state machine.
const (
	EvStart       = "START"
	EvRolePrimary = "ROLE_PRIMARY"
	EvRoleBackup  = "ROLE_BACKUP"
	EvPromote     = "PROMOTE"
	EvRestart     = "RESTART"
	EvRestartDone = "RESTART_DONE"
	EvError       = "ERROR"
	EvCrash       = "CRASH"
)

// States of the replica state machine.
const (
	StInit      = "INIT"
	StPrimary   = "PRIMARY"
	StBackup    = "BACKUP"
	StRestartSM = "RESTART_SM"
)

// SpecFor builds the replica state machine specification for one node,
// notifying all peers on externally observable states.
func SpecFor(self string, peers []string) *app.StateMachine {
	notify := ""
	for _, p := range peers {
		if p != self {
			notify += " " + p
		}
	}
	doc := fmt.Sprintf(`
global_state_list
  BEGIN
  INIT
  PRIMARY
  BACKUP
  RESTART_SM
  CRASH
  EXIT
end_global_state_list
event_list
  START
  ROLE_PRIMARY
  ROLE_BACKUP
  PROMOTE
  RESTART
  RESTART_DONE
  ERROR
  CRASH
end_event_list

state BEGIN
  START INIT
  RESTART RESTART_SM

state INIT notify%[1]s
  ROLE_PRIMARY PRIMARY
  ROLE_BACKUP BACKUP
  ERROR EXIT

state PRIMARY notify%[1]s
  CRASH CRASH
  ERROR EXIT

state BACKUP notify%[1]s
  PROMOTE PRIMARY
  CRASH CRASH
  ERROR EXIT

state RESTART_SM notify%[1]s
  RESTART_DONE BACKUP
  ERROR EXIT

state CRASH notify%[1]s
state EXIT notify%[1]s
`, notify)
	return app.MustParseSpec(doc)
}

// Config parameterizes one replica.
type Config struct {
	// Peers is the full membership in priority order: the first live peer
	// acts as primary.
	Peers []string
	// RunFor bounds the replica's life for experiment termination.
	RunFor time.Duration
	// TickEvery is the primary's update (and heartbeat) period
	// (default 2 ms).
	TickEvery time.Duration
	// PrimaryTimeout is the base silence threshold before a backup
	// promotes; backup k (in priority order) waits (k+1) timeouts, which
	// staggers takeovers (default 6x TickEvery).
	PrimaryTimeout time.Duration
	// Region, if set, is the memory region holding the replica's value —
	// register an app.MemoryFault against it to inject bit flips. When
	// nil a private region is used.
	Region *app.MemoryRegion
}

func (c *Config) setDefaults() {
	if c.TickEvery <= 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	if c.PrimaryTimeout <= 0 {
		c.PrimaryTimeout = 6 * c.TickEvery
	}
	if c.Region == nil {
		c.Region = app.NewMemoryRegion(make([]byte, 8))
	}
}

// Bus messages.
type updateMsg struct {
	Seq   uint64
	Value uint64
}

type syncReqMsg struct{}

type proc struct {
	cfg     Config
	h       *app.Handle
	clk     app.Clock
	applied uint64 // last applied sequence/value (counter semantics: seq == value)
}

// New builds the instrumented replica application. Crash and memory fault
// actions are registered by the caller on the returned Instrumented.
func New(cfg Config) *app.Instrumented {
	cfg.setDefaults()
	// One process state per instance, reset at every start: an instance's
	// Main never runs twice at once.
	p := new(proc)
	return app.New(func(h *app.Handle) {
		*p = proc{cfg: cfg, h: h, clk: h.Clock()}
		p.run()
	})
}

// Value returns the region's counter interpretation.
func regionValue(r *app.MemoryRegion) uint64 {
	return binary.BigEndian.Uint64(r.Snapshot())
}

func (p *proc) run() {
	h := p.h
	// A (re)started process begins with fresh memory: clear the region so
	// an earlier run's (or earlier experiment's) contents cannot leak in.
	p.cfg.Region.Reset(make([]byte, 8))
	deadline := p.clk.Now().Add(p.cfg.RunFor)
	if p.cfg.RunFor <= 0 {
		deadline = p.clk.Now().Add(24 * time.Hour)
	}

	if h.Restarted() {
		if h.NotifyEvent(EvRestart) != nil {
			return
		}
		// Catch up from the current primary before serving (§3.6.3's
		// "obtains state updates" at the application level).
		h.Broadcast(syncReqMsg{})
		if m, ok := h.WaitMessage(p.cfg.PrimaryTimeout); ok {
			if u, isUpdate := m.Payload.(updateMsg); isUpdate {
				p.apply(u)
			}
		}
		if h.NotifyEvent(EvRestartDone) != nil {
			return
		}
		p.backupLoop(deadline)
		return
	}

	if h.NotifyEvent(EvStart) != nil {
		return
	}
	if p.rank() == 0 {
		if h.NotifyEvent(EvRolePrimary) != nil {
			return
		}
		p.primaryLoop(deadline)
		return
	}
	if h.NotifyEvent(EvRoleBackup) != nil {
		return
	}
	p.backupLoop(deadline)
}

// rank is this replica's position in the priority order.
func (p *proc) rank() int {
	for i, peer := range p.cfg.Peers {
		if peer == p.h.Nickname() {
			return i
		}
	}
	return len(p.cfg.Peers)
}

// apply installs an update into the memory region.
func (p *proc) apply(u updateMsg) {
	if u.Seq <= p.applied {
		return
	}
	p.applied = u.Seq
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, u.Value)
	p.cfg.Region.Reset(b)
}

// corrupted checks the region against the replica's own applied value; a
// mismatch means a memory fault hit, and the replica fails stop (ERROR).
func (p *proc) corrupted() bool {
	return regionValue(p.cfg.Region) != p.applied
}

func (p *proc) primaryLoop(deadline time.Time) {
	h := p.h
	for p.clk.Now().Before(deadline) {
		if !h.Sleep(p.cfg.TickEvery) {
			return
		}
		if p.corrupted() {
			h.Note("primary detected memory corruption; failing stop")
			h.NotifyEvent(EvError)
			return
		}
		p.applied++
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, p.applied)
		p.cfg.Region.Reset(b)
		h.Broadcast(updateMsg{Seq: p.applied, Value: p.applied})
		// Serve sync requests from restarted replicas.
		for {
			m, ok := p.tryMessage()
			if !ok {
				break
			}
			if _, isSync := m.Payload.(syncReqMsg); isSync {
				h.Send(m.From, updateMsg{Seq: p.applied, Value: p.applied})
			}
		}
	}
}

func (p *proc) backupLoop(deadline time.Time) {
	h := p.h
	lastUpdate := p.clk.Now()
	promoteAfter := time.Duration(p.rank()+1) * p.cfg.PrimaryTimeout
	for p.clk.Now().Before(deadline) {
		m, ok := h.WaitMessage(p.cfg.TickEvery)
		if ok {
			// Check for corruption before applying: an incoming update
			// overwrites the region and would mask a probe-injected flip.
			if p.corrupted() {
				h.Note("backup detected memory corruption; failing stop")
				h.NotifyEvent(EvError)
				return
			}
			switch u := m.Payload.(type) {
			case updateMsg:
				p.apply(u)
				lastUpdate = p.clk.Now()
			case syncReqMsg:
				// Only primaries serve syncs; ignore as a backup.
			}
			continue
		}
		select {
		case <-h.Done():
			return
		default:
		}
		if p.clk.Since(lastUpdate) > promoteAfter {
			if h.NotifyEvent(EvPromote) != nil {
				return
			}
			p.primaryLoop(deadline)
			return
		}
	}
}

func (p *proc) tryMessage() (app.Message, bool) {
	select {
	case m := <-p.h.Inbox():
		return m, true
	default:
		return app.Message{}, false
	}
}
