// Package election implements the thesis's test application (Chapter 5): a
// leader election protocol over n processes. Each process picks a random
// number and sends it to the others; the process with the highest number
// leads; ties re-run the round. When the leader crashes the remaining
// processes elect a new leader, and crashed processes can restart and join
// the system again as followers (§5.2).
//
// The application is instrumented exactly as §5.5 prescribes: state
// machine events are reported through the probe handle at the abstraction
// level of Fig. 5.1 (INIT, ELECT, LEAD, FOLLOW, RESTART_SM, CRASH, EXIT).
// Leader-crash detection, which the thesis leaves to the application,
// uses leader heartbeats over the application bus.
//
// The package is written against the public SPI (repro/app) only and
// registers itself as "election" — the exemplar for user applications.
package election

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/app"
)

func init() {
	// Bus messages must survive a socket transport's gob envelope.
	app.RegisterMessage(voteMsg{}, heartbeatMsg{})
	app.MustRegister("election", app.Application{
		Spec: SpecFor,
		New: func(p app.Params) *app.Instrumented {
			return New(Config{Peers: p.Peers, RunFor: p.RunFor, Seed: p.Seed})
		},
	})
}

// Events of the Fig. 5.1 state machine.
const (
	EvStart       = "START"
	EvInitDone    = "INIT_DONE"
	EvRestart     = "RESTART"
	EvRestartDone = "RESTART_DONE"
	EvLeader      = "LEADER"
	EvFollower    = "FOLLOWER"
	EvLeaderCrash = "LEADER_CRASH"
	EvCrash       = "CRASH"
	EvError       = "ERROR"
)

// States of the Fig. 5.1 state machine.
const (
	StInit      = "INIT"
	StRestartSM = "RESTART_SM"
	StElect     = "ELECT"
	StLead      = "LEAD"
	StFollow    = "FOLLOW"
)

// SpecFor builds the §5.3 state machine specification for one process,
// with the notify lists pointing at the other processes — derived, as §5.3
// explains, from the fault specifications' need to observe INIT,
// RESTART_SM, and CRASH remotely.
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
  RESTART_SM
  ELECT
  FOLLOW
  LEAD
  CRASH
  EXIT
end_global_state_list
event_list
  START
  INIT_DONE
  RESTART
  RESTART_DONE
  LEADER
  FOLLOWER
  LEADER_CRASH
  CRASH
  ERROR
end_event_list

state BEGIN
  START INIT
  RESTART RESTART_SM

state INIT notify%[1]s
  INIT_DONE ELECT
  ERROR EXIT

state RESTART_SM notify%[1]s
  RESTART_DONE FOLLOW
  ERROR EXIT

state ELECT notify%[1]s
  FOLLOWER FOLLOW
  LEADER LEAD
  CRASH CRASH
  ERROR EXIT

state LEAD notify%[1]s
  CRASH CRASH
  ERROR EXIT

state FOLLOW notify%[1]s
  LEADER_CRASH ELECT
  CRASH CRASH
  ERROR EXIT

state CRASH notify%[1]s
state EXIT notify%[1]s
`, notify)
	return app.MustParseSpec(doc)
}

// Config parameterizes one election process.
type Config struct {
	// Peers is the full membership, including this process.
	Peers []string
	// RunFor bounds the process's life; it exits cleanly afterwards so
	// experiments terminate. Zero means run until crashed or killed.
	RunFor time.Duration
	// HeartbeatEvery is the leader's heartbeat period (default 2 ms).
	HeartbeatEvery time.Duration
	// LeaderTimeout is the follower's crash-detection threshold
	// (default 5x heartbeat).
	LeaderTimeout time.Duration
	// ElectWindow is how long a process collects votes in a round
	// (default 2x leader timeout).
	ElectWindow time.Duration
	// Seed seeds the random vote generator.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Millisecond
	}
	if c.LeaderTimeout <= 0 {
		c.LeaderTimeout = 5 * c.HeartbeatEvery
	}
	if c.ElectWindow <= 0 {
		c.ElectWindow = 2 * c.LeaderTimeout
	}
}

// Messages on the application bus.
type voteMsg struct {
	Round int
	Value int64
}

type heartbeatMsg struct {
	Leader string
}

// proc is one running election process. Everything a start needs lives
// in this one value: the vote generator and, for the usual handful of
// voters, the votes.
type proc struct {
	cfg Config
	h   *app.Handle
	clk app.Clock
	pcg rand.PCG

	round int
	// votes are the current round's and any later round's (a peer ahead
	// of us); an earlier round's are never counted again and are dropped.
	votes    []vote
	voteBuf  [6]vote
	deadline time.Time
	lastHB   time.Time
	leader   string
}

type vote struct {
	round int
	who   string
	value int64
}

// New builds the instrumented application for one process. Fault actions
// (e.g. app.CrashFault for bfault1) are registered by the caller on the
// returned Instrumented.
func New(cfg Config) *app.Instrumented {
	cfg.setDefaults()
	// One process state per instance, reset at every start: an instance's
	// Main never runs twice at once.
	p := new(proc)
	return app.New(func(h *app.Handle) {
		// The nickname's hash is the second half of the per-process seed:
		// distinct processes must draw distinct vote streams even under
		// identical configured seeds, or elections tie forever (§5.2's
		// arbitration assumes independent draws). PCG seeds in O(1) —
		// every process of every experiment seeds one of these.
		*p = proc{cfg: cfg, h: h, clk: h.Clock()}
		p.pcg.Seed(uint64(cfg.Seed), fnv64a(h.Nickname()))
		p.votes = p.voteBuf[:0]
		p.run()
	})
}

// fnv64a is hash/fnv's 64-bit FNV-1a of s, without the hasher and the
// byte copy.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw is the next vote value: what rand.Rand.Int64 returns over the PCG.
func (p *proc) draw() int64 { return int64(p.pcg.Uint64() &^ (1 << 63)) }

func (p *proc) run() {
	h := p.h
	if p.cfg.RunFor > 0 {
		p.deadline = p.clk.Now().Add(p.cfg.RunFor)
	} else {
		p.deadline = p.clk.Now().Add(24 * time.Hour)
	}

	if h.Restarted() {
		// §5.5's restarted path: BEGIN -RESTART-> RESTART_SM, then
		// RESTART_DONE -> FOLLOW. A restarted process is always a follower.
		if err := h.NotifyEvent(EvRestart); err != nil {
			return
		}
		h.NotifyEvent(EvRestartDone)
		p.lastHB = p.clk.Now()
		p.followLoop()
		return
	}

	if err := h.NotifyEvent(EvStart); err != nil {
		return
	}
	// Application initialization (peer setup) would happen here.
	h.NotifyEvent(EvInitDone)

	p.electLoop()
}

// electLoop runs election rounds until a leader emerges, then enters the
// corresponding role loop; it returns when the process should exit.
func (p *proc) electLoop() {
	h := p.h
	for p.clk.Now().Before(p.deadline) && !h.Crashed() {
		winner, ok := p.electOnce()
		if !ok {
			return // crashed or killed mid-round
		}
		if winner == "" {
			continue // tie: arbitration repeats (§5.2)
		}
		if winner == h.Nickname() {
			if h.NotifyEvent(EvLeader) != nil {
				return
			}
			if !p.leadLoop() {
				return
			}
		} else {
			if h.NotifyEvent(EvFollower) != nil {
				return
			}
			p.leader = winner
			p.lastHB = p.clk.Now()
			if !p.followLoop() {
				return
			}
		}
	}
}

// electOnce runs one round: broadcast a vote, collect for the window, pick
// the maximum. Returns ("", true) on a tie, (winner, true) on success, and
// ("", false) when the process must stop.
func (p *proc) electOnce() (string, bool) {
	h := p.h
	p.round++
	me := h.Nickname()
	value := p.draw()
	p.recordVote(p.round, me, value)
	h.Broadcast(voteMsg{Round: p.round, Value: value})

	end := p.clk.Now().Add(p.cfg.ElectWindow)
	for p.clk.Now().Before(end) {
		m, ok := h.WaitMessage(end.Sub(p.clk.Now()))
		if !ok {
			if h.Crashed() {
				return "", false
			}
			select {
			case <-h.Done():
				return "", false
			default:
			}
			break
		}
		switch msg := m.Payload.(type) {
		case voteMsg:
			p.recordVote(msg.Round, m.From, msg.Value)
			if msg.Round > p.round {
				// A peer is ahead (it saw the crash first); catch up by
				// voting in its round too.
				for p.round < msg.Round {
					p.round++
					v := p.draw()
					p.recordVote(p.round, me, v)
					h.Broadcast(voteMsg{Round: p.round, Value: v})
				}
			}
		case heartbeatMsg:
			// A leader already exists (we joined late): follow it.
			return msg.Leader, true
		}
	}

	var winner string
	var best int64 = -1
	tie := false
	for _, v := range p.votes {
		if v.round != p.round {
			continue
		}
		switch {
		case v.value > best:
			best, winner, tie = v.value, v.who, false
		case v.value == best:
			tie = true
		}
	}
	if tie {
		return "", true
	}
	return winner, true
}

// recordVote keeps who's vote in round, replacing an earlier one. The
// tally does not depend on the order votes arrive in, only on the maximum
// and whether it repeats.
func (p *proc) recordVote(round int, who string, value int64) {
	if round < p.round {
		return
	}
	kept := p.votes[:0]
	for _, v := range p.votes {
		if v.round >= p.round && (v.round != round || v.who != who) {
			kept = append(kept, v)
		}
	}
	p.votes = append(kept, vote{round: round, who: who, value: value})
}

// leadLoop broadcasts heartbeats until exit or crash. It returns false
// when the process must stop entirely.
func (p *proc) leadLoop() bool {
	h := p.h
	var heartbeat any = heartbeatMsg{Leader: h.Nickname()} // boxed once
	for p.clk.Now().Before(p.deadline) {
		h.Broadcast(heartbeat)
		if !h.Sleep(p.cfg.HeartbeatEvery) {
			return false // crashed or killed
		}
		// Drain the inbox so vote messages from restarted peers don't pile
		// up; a live leader answers them with its heartbeat.
		for {
			m, ok := p.tryMessage()
			if !ok {
				break
			}
			if _, isVote := m.Payload.(voteMsg); isVote {
				h.Send(m.From, heartbeat)
			}
		}
	}
	return true // clean exit at deadline
}

// followLoop watches for leader heartbeats; on timeout it reports
// LEADER_CRASH and returns true so the caller re-enters the election. It
// returns false when the process must stop entirely.
func (p *proc) followLoop() bool {
	h := p.h
	for p.clk.Now().Before(p.deadline) {
		m, ok := h.WaitMessage(p.cfg.HeartbeatEvery)
		if !ok {
			select {
			case <-h.Done():
				return false
			default:
			}
			if p.clk.Since(p.lastHB) > p.cfg.LeaderTimeout {
				// Leader presumed crashed: rejoin the election (§5.2).
				if h.NotifyEvent(EvLeaderCrash) != nil {
					return false
				}
				return p.reElect()
			}
			continue
		}
		switch msg := m.Payload.(type) {
		case heartbeatMsg:
			p.lastHB = p.clk.Now()
			p.leader = msg.Leader
		case voteMsg:
			// Someone started an election: the leader must be gone.
			p.recordVote(msg.Round, m.From, msg.Value)
			if h.NotifyEvent(EvLeaderCrash) != nil {
				return false
			}
			return p.reElect()
		}
	}
	return true
}

// reElect continues the election loop after LEADER_CRASH; it mirrors
// electLoop but is factored so followLoop can tail-call it.
func (p *proc) reElect() bool {
	p.electLoop()
	return false // electLoop only returns when the process is done
}

func (p *proc) tryMessage() (app.Message, bool) {
	select {
	case m := <-p.h.Inbox():
		return m, true
	default:
		return app.Message{}, false
	}
}
