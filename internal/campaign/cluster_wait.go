package campaign

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Every wait the cluster protocol performs on a real socket lives here —
// the instruction rebroadcasts, the sync rounds' pong collection, the done
// reports and the acknowledged stop: peers are separate processes (or
// runtimes standing in for them) that no virtual clock can see, so these
// deadlines and retry ticks read the wall clock — this is the one file of
// the package lokilint's wallclock analyzer exempts (Open rejects virtual
// time over a cluster).
const (
	clusterRetry       = 25 * time.Millisecond
	clusterAckTimeout  = 10 * time.Second
	clusterPongTimeout = 500 * time.Millisecond
	// clusterStopTimeout bounds the acknowledged stop: five broadcasts
	// clusterRetry apart.
	clusterStopTimeout = 5 * clusterRetry
)

// errMemberQuit reports a wait cut short by Member.Quit — a cancelled
// context, in every path that reaches a coordinator.
var errMemberQuit = errors.New("member quit")

// gather sends the instruction to every peer and re-sends it every
// clusterRetry to each peer that still owes its answer, until each peer's
// full respOp frame set for the instruction's index has arrived — one
// frame for acknowledgements (resetok, done, stopok), a Seq/Total-numbered
// set for chunked results — and own, when non-nil, has delivered this
// member's local completion (filed under the member's own name). A peer
// that sent an ackOp frame for the index (ackOp may be empty) holds the
// instruction and is not sent it again: start is acknowledged with startok
// as it lands, so a lost start is re-sent on the next tick while the
// nodes run, and a started member repeats its own done (reportDone). A
// loss-free run sends each instruction once. It returns the sets in Seq
// order, or an error once limit has passed or quit closed (a nil quit
// never does).
func (m *Member) gather(op string, msg clusterMsg, respOp, ackOp string, peers []string, limit time.Duration, own <-chan bool, quit <-chan struct{}) (map[string][]clusterMsg, error) {
	got := make(map[string]map[int]clusterMsg, len(peers)+1)
	for _, p := range peers {
		got[p] = make(map[int]clusterMsg)
	}
	var acked map[string]bool // peers that acknowledged the instruction
	pending := func() bool {
		if own != nil {
			return true
		}
		for _, fr := range got {
			if !complete(fr) {
				return true
			}
		}
		return false
	}
	tm := m.c.Obs.TransportMetrics(m.tr.Name())
	deadline := time.Now().Add(limit)
	m.broadcastCtrl(op, msg)
	ticker := time.NewTicker(clusterRetry)
	defer ticker.Stop()
	for pending() {
		select {
		case <-quit:
			return nil, fmt.Errorf("awaiting %s: %w", respOp, errMemberQuit)
		case ok := <-own:
			own = nil
			got[m.peer] = map[int]clusterMsg{0: {Peer: m.peer, Index: msg.Index, Completed: ok}}
		case in := <-m.inbox:
			cm, err := transport.DecodePayload[clusterMsg](in.Payload)
			if err != nil || cm.Index != msg.Index {
				continue
			}
			fr, ok := got[cm.Peer]
			switch {
			case !ok:
			case in.State == respOp:
				fr[cm.Seq] = cm
			case ackOp != "" && in.State == ackOp:
				if acked == nil {
					acked = make(map[string]bool, len(peers))
				}
				acked[cm.Peer] = true
			}
		case <-ticker.C:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("timed out awaiting %s (frames so far %v, own pending: %v)", respOp, frameCounts(got), own != nil)
			}
			resent := false
			for _, p := range peers {
				if !acked[p] && !complete(got[p]) {
					m.sendCtrl(p, op, msg)
					resent = true
				}
			}
			if resent && tm != nil {
				tm.Retries.Inc()
			}
		}
	}
	return framesBySeq(got), nil
}

// complete reports whether one peer's frame set has arrived whole: at
// least one frame, and as many as its frames' Total says.
func complete(fr map[int]clusterMsg) bool {
	if len(fr) == 0 {
		return false
	}
	for _, f := range fr {
		if len(fr) < f.Total {
			return false
		}
	}
	return true
}

// collectPongs waits for one sync round's pongs, one per ping of round,
// each matched by its remote host (ToHost) and sequence number, until
// every ping is answered, clusterPongTimeout has passed, or the member
// quit. The reference and process clocks are read as a pong is dequeued,
// so its transit stays positive. A stale pong (an earlier round's, past
// its timeout) or a duplicate is never paired; an unanswered ping keeps ok
// false.
func (m *Member) collectPongs(round []syncPing, refClock *vclock.Clock, tm *obs.TransportMetrics) {
	timeout := time.NewTimer(clusterPongTimeout)
	defer timeout.Stop()
	for waiting := len(round); waiting > 0; {
		select {
		case <-m.quit:
			return
		case msg := <-m.inbox:
			if msg.Kind != transport.KindSyncPong {
				continue
			}
			refRecv, procRecv := refClock.Now(), m.rt.Clock().Now()
			p := awaitingPing(round, msg.ToHost)
			if p == nil {
				continue
			}
			w, err := transport.DecodePayload[syncWire](msg.Payload)
			if err != nil || w.Seq != p.seq {
				continue
			}
			p.ok, p.pong, p.refRecv, p.procRecv = true, w, refRecv, procRecv
			if tm != nil {
				tm.RTTSeconds.ObserveSince(p.sentAt)
			}
			waiting--
		case <-timeout.C:
			return
		}
	}
}

// awaitingPing returns the unanswered ping of round to host, or nil.
func awaitingPing(round []syncPing, host string) *syncPing {
	for i := range round {
		if round[i].host == host && !round[i].ok {
			return &round[i]
		}
	}
	return nil
}

// reportDone waits for the member's local nodes to finish, then sends
// done frames until quit closes (the seal acknowledges them).
func (m *Member) reportDone(coordinator string, index int, quit chan struct{}) {
	completed := m.rt.Wait(studyTimeout(m.st))
	for {
		m.sendCtrl(coordinator, opDone, clusterMsg{Index: index, Completed: completed})
		select {
		case <-quit:
			return
		case <-time.After(clusterRetry * 4):
		}
	}
}

// stopCluster ends the study cluster-wide: stop is re-broadcast until
// every peer has answered stopok or clusterStopTimeout has passed. A
// missing acknowledgement is not an error — a member that already quit
// has nothing left to stop, and a lost stopok costs only the bound. Unlike
// every other wait, Quit does not cut this one short: a cancelled study
// must still stop its lokid members. (The in-process runner also has the
// direct Quit escape hatch; a real lokid member additionally quits on
// SIGINT.)
func (m *Member) stopCluster() {
	_, _ = m.gather(opStop, clusterMsg{}, opStopOK, "", m.tr.Topology().PeerNames(), clusterStopTimeout, nil, nil)
}
