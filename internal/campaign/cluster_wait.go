package campaign

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// Every wait the cluster protocol performs on a real socket lives here:
// peers are separate processes (or runtimes standing in for them) that no
// virtual clock can see, so these deadlines and retry ticks read the wall
// clock — this is the one file of the package lokilint's wallclock
// analyzer exempts (Open rejects virtual time over a cluster).
const (
	clusterRetry       = 25 * time.Millisecond
	clusterAckTimeout  = 10 * time.Second
	clusterPongTimeout = 500 * time.Millisecond
)

// errMemberQuit reports a wait cut short by Member.Quit — a cancelled
// context, in every path that reaches a coordinator.
var errMemberQuit = errors.New("member quit")

// gather broadcasts the instruction and re-broadcasts it every
// clusterRetry until each peer's full respOp frame set for the
// instruction's index has arrived — one frame for acknowledgements
// (resetok, done), a Seq/Total-numbered set for chunked results — and
// own, when non-nil, has delivered this member's local completion (filed
// under the member's own name). It returns the sets in Seq order, or an
// error once limit has passed or the member quit.
func (m *Member) gather(op string, msg clusterMsg, respOp string, peers []string, limit time.Duration, own <-chan bool) (map[string][]clusterMsg, error) {
	got := make(map[string]map[int]clusterMsg, len(peers)+1)
	for _, p := range peers {
		got[p] = make(map[int]clusterMsg)
	}
	pending := func() bool {
		if own != nil {
			return true
		}
		for _, fr := range got {
			if len(fr) == 0 {
				return true
			}
			for _, f := range fr {
				if len(fr) < f.Total {
					return true
				}
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
		case <-m.quit:
			return nil, fmt.Errorf("awaiting %s: %w", respOp, errMemberQuit)
		case ok := <-own:
			own = nil
			got[m.peer] = map[int]clusterMsg{0: {Peer: m.peer, Index: msg.Index, Completed: ok}}
		case in := <-m.inbox:
			cm, err := transport.DecodePayload[clusterMsg](in.Payload)
			if err != nil || in.State != respOp || cm.Index != msg.Index {
				continue
			}
			if fr, ok := got[cm.Peer]; ok {
				fr[cm.Seq] = cm
			}
		case <-ticker.C:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("timed out awaiting %s (frames so far %v, own pending: %v)", respOp, frameCounts(got), own != nil)
			}
			if tm != nil {
				tm.Retries.Inc()
			}
			m.broadcastCtrl(op, msg)
		}
	}
	return framesBySeq(got), nil
}

// awaitPong waits for the numbered pong from the named host.
func (m *Member) awaitPong(host string, seq int) (syncWire, bool) {
	deadline := time.After(clusterPongTimeout)
	for {
		select {
		case <-m.quit:
			return syncWire{}, false
		case msg := <-m.inbox:
			if msg.Kind != transport.KindSyncPong || msg.ToHost != host {
				continue
			}
			w, err := transport.DecodePayload[syncWire](msg.Payload)
			if err != nil || w.Seq != seq {
				continue
			}
			return w, true
		case <-deadline:
			return syncWire{}, false
		}
	}
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

// stopCluster broadcasts the stop instruction several times: stop is the
// one instruction with no observable effect to retry against, so repeat
// sends stand in for the re-broadcast-until-acknowledged rule the rest
// of the protocol follows. (The in-process runner also has the direct
// Quit escape hatch; a real lokid member additionally quits on SIGINT.)
func (m *Member) stopCluster() {
	for i := 0; i < 5; i++ {
		m.broadcastCtrl(opStop, clusterMsg{})
		time.Sleep(clusterRetry)
	}
}
