// Package quorum implements the third member of the application zoo: a
// collective-signing round in the style of CoSi/ByzCoin witness cosigning.
// A leader announces a statement to n-1 cosigners, each cosigner returns a
// signature share, and the leader finalizes a collective signature once it
// holds at least ⌈2n/3⌉ shares (its own included); short of quorum it
// aborts the round. Every experiment runs exactly one round, so the
// outcome is a clean protocol verdict: all live participants end in SIGNED
// (liveness) or in ABORT, and a finalized signature below threshold is a
// safety violation a cosigner detects and reports as ERROR.
//
// The protocol's phase structure (ANNOUNCE, COMMIT, QUORUM) is exposed as
// global states, so campaigns can target faults precisely — crash a
// cosigner while it sits in COMMIT, crash the leader in ANNOUNCE, slow the
// commit messages with a latency profile — and measure how often the round
// still signs.
//
// The package is written against the public SPI (repro/app) only and
// registers itself as "quorum".
package quorum

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/app"
)

func init() {
	// Bus messages must survive a socket transport's gob envelope.
	app.RegisterMessage(announceMsg{}, commitMsg{}, finalMsg{}, abortMsg{})
	app.MustRegister("quorum", app.Application{
		Spec: SpecFor,
		New:  func(p app.Params) *app.Instrumented { return New(Config{Peers: p.Peers, RunFor: p.RunFor}) },
	})
}

// Events of the quorum state machine.
const (
	EvStart       = "START"
	EvAnnounce    = "ANNOUNCE"
	EvCommitted   = "COMMITTED"
	EvQuorum      = "QUORUM"
	EvNoQuorum    = "NO_QUORUM"
	EvFinalize    = "FINALIZE"
	EvAbort       = "ABORT"
	EvRestart     = "RESTART"
	EvRestartDone = "RESTART_DONE"
	EvError       = "ERROR"
	EvCrash       = "CRASH"
)

// States of the quorum state machine.
const (
	StInit      = "INIT"
	StAnnounce  = "ANNOUNCE_PH"
	StCommit    = "COMMIT"
	StQuorum    = "QUORUM_PH"
	StSigned    = "SIGNED"
	StAbort     = "ABORT_PH"
	StRestartSM = "RESTART_SM"
)

// SpecFor builds the quorum state machine specification for one node. The
// same machine serves leader and cosigners: the leader walks INIT →
// ANNOUNCE_PH → QUORUM_PH → SIGNED (or ANNOUNCE_PH → ABORT_PH), a cosigner
// INIT → COMMIT → SIGNED (or → ABORT_PH). Every externally observable
// state notifies all peers, so fault triggers can reference any of them.
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
  ANNOUNCE_PH
  COMMIT
  QUORUM_PH
  SIGNED
  ABORT_PH
  RESTART_SM
  CRASH
  EXIT
end_global_state_list
event_list
  START
  ANNOUNCE
  COMMITTED
  QUORUM
  NO_QUORUM
  FINALIZE
  ABORT
  RESTART
  RESTART_DONE
  ERROR
  CRASH
end_event_list

state BEGIN
  START INIT
  RESTART RESTART_SM

state INIT notify%[1]s
  ANNOUNCE ANNOUNCE_PH
  COMMITTED COMMIT
  ABORT ABORT_PH
  CRASH CRASH
  ERROR EXIT

state ANNOUNCE_PH notify%[1]s
  QUORUM QUORUM_PH
  NO_QUORUM ABORT_PH
  CRASH CRASH
  ERROR EXIT

state COMMIT notify%[1]s
  FINALIZE SIGNED
  ABORT ABORT_PH
  CRASH CRASH
  ERROR EXIT

state QUORUM_PH notify%[1]s
  FINALIZE SIGNED
  CRASH CRASH
  ERROR EXIT

state SIGNED notify%[1]s
  CRASH CRASH
  ERROR EXIT

state ABORT_PH notify%[1]s
  CRASH CRASH
  ERROR EXIT

state RESTART_SM notify%[1]s
  RESTART_DONE ABORT_PH
  ERROR EXIT

state CRASH notify%[1]s
state EXIT notify%[1]s
`, notify)
	return app.MustParseSpec(doc)
}

// Config parameterizes one quorum participant.
type Config struct {
	// Peers is the full membership; the first peer leads the round.
	Peers []string
	// RunFor bounds the participant's life for experiment termination;
	// after the round resolves it idles in its terminal protocol state so
	// global-state predicates over SIGNED/ABORT_PH have duration.
	RunFor time.Duration
	// AnnounceAfter is how long the leader lets the cosigners settle
	// before announcing (default 2 ms).
	AnnounceAfter time.Duration
	// CommitWindow is how long the leader collects signature shares
	// (default 12 ms).
	CommitWindow time.Duration
	// AnnounceTimeout is how long a cosigner waits for the announcement
	// before giving the round up (default 25 ms).
	AnnounceTimeout time.Duration
	// FinalTimeout is how long a committed cosigner waits for the
	// finalize/abort decision (default 25 ms).
	FinalTimeout time.Duration
}

func (c *Config) setDefaults() {
	if c.AnnounceAfter <= 0 {
		c.AnnounceAfter = 2 * time.Millisecond
	}
	if c.CommitWindow <= 0 {
		c.CommitWindow = 12 * time.Millisecond
	}
	if c.AnnounceTimeout <= 0 {
		c.AnnounceTimeout = 25 * time.Millisecond
	}
	if c.FinalTimeout <= 0 {
		c.FinalTimeout = 25 * time.Millisecond
	}
}

// Threshold is the quorum size for n participants: ⌈2n/3⌉.
func Threshold(n int) int { return (2*n + 2) / 3 }

// Bus messages. One round per experiment, but every message still carries
// the round tag so stale traffic (restarts, chaos-delayed duplicates) is
// recognizably stale.
type announceMsg struct {
	Round int
}

type commitMsg struct {
	Round int
	Share uint64
}

type finalMsg struct {
	Round     int
	Signers   []string
	Aggregate uint64
}

type abortMsg struct {
	Round int
}

// share derives a participant's deterministic signature share for a round —
// a stand-in for the Schnorr commitment in real CoSi.
func share(nick string, round int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", nick, round)
	return h.Sum64()
}

type proc struct {
	cfg Config
	h   *app.Handle
	clk app.Clock
}

// New builds the instrumented quorum participant. Crash fault actions are
// registered by the caller (or the campaign loader) on the returned
// Instrumented.
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

func (p *proc) run() {
	h := p.h
	deadline := p.clk.Now().Add(p.cfg.RunFor)
	if p.cfg.RunFor <= 0 {
		deadline = p.clk.Now().Add(24 * time.Hour)
	}

	if h.Restarted() {
		// A restarted participant has missed the round: report the restart
		// path and settle in ABORT_PH.
		if h.NotifyEvent(EvRestart) != nil {
			return
		}
		if h.NotifyEvent(EvRestartDone) != nil {
			return
		}
		p.idle(deadline)
		return
	}

	if h.NotifyEvent(EvStart) != nil {
		return
	}
	const round = 1
	if p.isLeader() {
		p.lead(round, deadline)
	} else {
		p.cosign(round, deadline)
	}
}

func (p *proc) isLeader() bool {
	return len(p.cfg.Peers) > 0 && p.cfg.Peers[0] == p.h.Nickname()
}

// lead runs the leader's side of the round: announce, collect shares,
// decide, broadcast the decision.
func (p *proc) lead(round int, deadline time.Time) {
	h := p.h
	n := len(p.cfg.Peers)
	need := Threshold(n)

	if !h.Sleep(p.cfg.AnnounceAfter) {
		return
	}
	if h.NotifyEvent(EvAnnounce) != nil {
		return
	}
	h.Broadcast(announceMsg{Round: round})

	// The leader's own share counts toward the threshold.
	signers := []string{h.Nickname()}
	agg := share(h.Nickname(), round)
	seen := map[string]bool{h.Nickname(): true}

	end := p.clk.Now().Add(p.cfg.CommitWindow)
	for p.clk.Now().Before(end) && len(signers) < n {
		m, ok := h.WaitMessage(end.Sub(p.clk.Now()))
		if !ok {
			if h.Crashed() {
				return
			}
			select {
			case <-h.Done():
				return
			default:
			}
			break
		}
		c, isCommit := m.Payload.(commitMsg)
		if !isCommit || c.Round != round || seen[m.From] {
			continue
		}
		seen[m.From] = true
		signers = append(signers, m.From)
		agg ^= c.Share
	}

	if len(signers) >= need {
		if h.NotifyEvent(EvQuorum) != nil {
			return
		}
		h.Note(fmt.Sprintf("quorum: %d/%d shares (need %d)", len(signers), n, need))
		h.Broadcast(finalMsg{Round: round, Signers: signers, Aggregate: agg})
		if h.NotifyEvent(EvFinalize) != nil {
			return
		}
	} else {
		h.Note(fmt.Sprintf("no quorum: %d/%d shares (need %d)", len(signers), n, need))
		if h.NotifyEvent(EvNoQuorum) != nil {
			return
		}
		h.Broadcast(abortMsg{Round: round})
	}
	p.idle(deadline)
}

// cosign runs a cosigner's side: wait for the announcement, commit a
// share, then follow the leader's decision — checking it for safety.
func (p *proc) cosign(round int, deadline time.Time) {
	h := p.h

	switch p.awaitAnnounce(round) {
	case announceDead:
		return
	case announceTimeout:
		// No announcement: the leader is presumed dead, the round aborts.
		if h.NotifyEvent(EvAbort) != nil {
			return
		}
		p.idle(deadline)
		return
	}

	if h.NotifyEvent(EvCommitted) != nil {
		return
	}
	h.Send(p.cfg.Peers[0], commitMsg{Round: round, Share: share(h.Nickname(), round)})

	end := p.clk.Now().Add(p.cfg.FinalTimeout)
	for p.clk.Now().Before(end) {
		m, ok := h.WaitMessage(end.Sub(p.clk.Now()))
		if !ok {
			if h.Crashed() {
				return
			}
			select {
			case <-h.Done():
				return
			default:
			}
			break
		}
		switch d := m.Payload.(type) {
		case finalMsg:
			if d.Round != round {
				continue
			}
			// Safety check: a collective signature must carry a quorum of
			// shares. A leader finalizing below threshold is a protocol
			// violation, and the cosigner fails stop on it.
			if len(d.Signers) < Threshold(len(p.cfg.Peers)) {
				h.Note(fmt.Sprintf("safety violation: final with %d signers, need %d",
					len(d.Signers), Threshold(len(p.cfg.Peers))))
				h.NotifyEvent(EvError)
				return
			}
			if h.NotifyEvent(EvFinalize) != nil {
				return
			}
			p.idle(deadline)
			return
		case abortMsg:
			if d.Round != round {
				continue
			}
			if h.NotifyEvent(EvAbort) != nil {
				return
			}
			p.idle(deadline)
			return
		}
	}
	// Leader fell silent after the announcement: give the round up.
	if h.NotifyEvent(EvAbort) != nil {
		return
	}
	p.idle(deadline)
}

type announceResult int

const (
	announceOK announceResult = iota
	announceTimeout
	announceDead
)

// awaitAnnounce blocks until the round's announcement, the timeout, or the
// process's death.
func (p *proc) awaitAnnounce(round int) announceResult {
	h := p.h
	end := p.clk.Now().Add(p.cfg.AnnounceTimeout)
	for p.clk.Now().Before(end) {
		m, ok := h.WaitMessage(end.Sub(p.clk.Now()))
		if !ok {
			if h.Crashed() {
				return announceDead
			}
			select {
			case <-h.Done():
				return announceDead
			default:
			}
			return announceTimeout
		}
		if a, isAnnounce := m.Payload.(announceMsg); isAnnounce && a.Round == round {
			return announceOK
		}
	}
	return announceTimeout
}

// idle parks the participant in its terminal protocol state until the
// deadline, so the state has measurable duration and late faults can land.
func (p *proc) idle(deadline time.Time) {
	for p.clk.Now().Before(deadline) {
		if !p.h.Sleep(deadline.Sub(p.clk.Now())) {
			return
		}
	}
}
