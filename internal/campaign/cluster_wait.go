package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Every wait the cluster protocol performs lives here — the instruction
// rebroadcasts, the sync rounds' pong collection, the done reports and
// the acknowledged stop — and each blocks on a waiter of the runtime's
// clock.Clock and reads its deadlines and retry ticks from that clock.
// (Open still rejects virtual time over socket transports.)
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

// recv takes the oldest frame from the member's inbox, blocking on its
// waiter until one is queued. It fails with context.DeadlineExceeded once
// the runtime's clock reaches until (a zero until never comes) and, when
// quit is set, with errMemberQuit once Quit has been called.
func (m *Member) recv(until time.Time, quit bool) (inFrame, error) {
	for {
		m.mu.Lock()
		if quit && m.quit {
			m.mu.Unlock()
			return inFrame{}, errMemberQuit
		}
		if len(m.inbox) > 0 {
			msg := m.inbox[0]
			m.inbox = append(m.inbox[:0], m.inbox[1:]...)
			m.mu.Unlock()
			return msg, nil
		}
		m.mu.Unlock()
		wait := time.Duration(-1) // no deadline
		if !until.IsZero() {
			if wait = until.Sub(m.rt.Clock().Now()); wait <= 0 {
				return inFrame{}, context.DeadlineExceeded
			}
		}
		m.wake.Wait(wait)
	}
}

// gather sends the instruction op to every peer and re-sends it every
// clusterRetry to each peer that still owes its answer, until each peer's
// full respOp frame set for the instruction's index has arrived — one
// frame for acknowledgements (resetok, startok, done, stopok), a
// Seq/Total-numbered set for chunked results. An empty op sends nothing:
// the answer is a report its sender repeats on its own (done, see
// reportDone). A loss-free run sends each instruction once. It returns the
// sets indexed like m.peers, each in Seq order (a frame whose Seq the set
// holds replaces it), or an error once limit has passed or, when quit is
// set, the member quit. The sets live in arrays the next gather reuses:
// every caller is done with them before it gathers again. A respOp frame
// from a peer whose payload is in another layout fails the wait at once
// with checkPeer's refusal: its sender speaks another protocol version,
// which no re-send can mend.
func (m *Member) gather(op string, msg clusterMsg, respOp string, limit time.Duration, quit bool) ([][]clusterMsg, error) {
	sets := m.answers
	for i := range sets {
		clear(sets[i]) // drop the last gather's frames; their documents may be large
		sets[i] = sets[i][:0]
	}
	tm := m.c.Obs.TransportMetrics(m.tr.Name())
	clk := m.rt.Clock()
	deadline, tick := clk.Now().Add(limit), clk.Now().Add(clusterRetry)
	if op != "" {
		m.broadcastCtrl(op, msg)
	}
	for !allComplete(sets) {
		in, err := m.recv(tick, quit)
		switch {
		case errors.Is(err, errMemberQuit):
			return nil, fmt.Errorf("awaiting %s: %w", respOp, err)
		case err != nil && !clk.Now().Before(deadline):
			return nil, fmt.Errorf("timed out awaiting %s (frames so far: %s)", respOp, m.frameCounts(sets))
		case err != nil: // the retry tick
			tick = clk.Now().Add(clusterRetry)
			resent := false
			for i, p := range m.peers {
				if op != "" && !complete(sets[i]) {
					m.sendCtrl(p, op, msg)
					resent = true
				}
			}
			if resent && tm != nil {
				tm.Retries.Inc()
			}
		case in.kind == transport.KindCtrl && in.op == respOp:
			switch {
			case in.err != nil:
				if m.peerIndex(in.from) >= 0 && errors.As(in.err, new(*wireVersionError)) {
					return nil, m.checkPeer(in.from, in.cm, in.err)
				}
			case in.cm.Index == msg.Index:
				if i := m.peerIndex(in.cm.Peer); i >= 0 {
					sets[i] = addFrame(sets[i], in.cm)
				}
			}
		}
	}
	return sets, nil
}

// peerIndex is peer's index in m.peers, or -1 for a peer that is not one.
func (m *Member) peerIndex(peer string) int {
	if i, ok := slices.BinarySearch(m.peers, peer); ok {
		return i
	}
	return -1
}

// addFrame puts f into set, which is in Seq order, in its place; a frame of
// the same Seq is replaced.
func addFrame(set []clusterMsg, f clusterMsg) []clusterMsg {
	i, found := slices.BinarySearchFunc(set, f.Seq, func(e clusterMsg, seq int) int { return cmp.Compare(e.Seq, seq) })
	if found {
		set[i] = f
		return set
	}
	return slices.Insert(set, i, f)
}

// complete reports whether one peer's frame set has arrived whole: at
// least one frame, and as many as its frames' Total says.
func complete(set []clusterMsg) bool {
	if len(set) == 0 {
		return false
	}
	for i := range set {
		if len(set) < set[i].Total {
			return false
		}
	}
	return true
}

// allComplete reports whether every peer's frame set is complete.
func allComplete(sets [][]clusterMsg) bool {
	for _, set := range sets {
		if !complete(set) {
			return false
		}
	}
	return true
}

// frameCounts says, for a timeout's diagnosis, how many frames each peer
// has sent.
func (m *Member) frameCounts(sets [][]clusterMsg) string {
	var b []byte
	for i, p := range m.peers {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(append(append(b, p...), ' '), int64(len(sets[i])), 10)
	}
	return string(b)
}

// collectPongs waits for one sync round's pongs, one per ping of round,
// each matched by its remote host (ToHost) and sequence number, until
// every ping is answered, clusterPongTimeout has passed, or the member
// quit. The reference and process clocks are read as a pong is dequeued,
// so its transit stays positive. A stale pong (an earlier round's, past
// its timeout) or a duplicate is never paired; an unanswered ping keeps ok
// false.
func (m *Member) collectPongs(round []syncPing, refClock *vclock.Clock, tm *obs.TransportMetrics) {
	until := m.rt.Clock().Now().Add(clusterPongTimeout)
	for waiting := len(round); waiting > 0; {
		in, err := m.recv(until, true)
		if err != nil {
			return
		}
		if in.kind != transport.KindSyncPong {
			continue
		}
		refRecv, procRecv := refClock.Now(), m.rt.Clock().Now()
		p := awaitingPing(round, in.toHost)
		if p == nil || in.err != nil || in.pong.Seq != p.seq {
			continue
		}
		p.ok, p.pong, p.refRecv, p.procRecv = true, in.pong, refRecv, procRecv
		if tm != nil {
			tm.RTTSeconds.ObserveSince(p.sentAt)
		}
		waiting--
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

// doneReport is one experiment's done reports: a task of the runtime's
// clock (report) that sends them until stop is woken.
type doneReport struct {
	m           *Member
	coordinator string
	index       int
	stop        clock.Waiter
	run         func() // report, bound once
	returned    atomic.Bool
}

// report waits for the local nodes to finish, then sends done frames until
// stop is woken (the seal acknowledges them). It reads none of d once it
// has said it returned.
func (d *doneReport) report() {
	completed := d.m.rt.Wait(studyTimeout(d.m.st))
	for {
		d.m.sendCtrl(d.coordinator, opDone, clusterMsg{Index: d.index, Completed: completed})
		if d.stop.Wait(clusterRetry * 4) {
			d.returned.Store(true)
			return
		}
	}
}

// reportDone starts the member's done reports for the experiment index,
// which stop once the returned report's stop is woken. The member reuses
// its last report, waiter and all, when that report's task has returned:
// it has consumed its one wake and will read the report no more. A task
// still returning (a seal followed at once by the next start) keeps its
// report, and this experiment gets a new one.
func (m *Member) reportDone(coordinator string, index int) *doneReport {
	d := m.done
	if d == nil || !d.returned.Load() {
		d = &doneReport{m: m, stop: m.rt.Clock().NewWaiter()}
		d.run = d.report
		m.done = d
	}
	d.coordinator, d.index = coordinator, index
	d.returned.Store(false)
	m.rt.Clock().Go(d.run)
	return d
}

// stopCluster ends the study cluster-wide: stop is re-broadcast until
// every peer has answered stopok or clusterStopTimeout has passed. A
// missing acknowledgement is not an error — a member that already quit
// has nothing left to stop, and a lost stopok costs only the bound. Unlike
// every other wait, Quit does not cut this one short: a cancelled study
// must still stop its lokirun members. (The in-process runner also has the
// direct Quit escape hatch; a real lokirun member additionally quits on
// SIGINT.)
func (m *Member) stopCluster() {
	_, _ = m.gather(opStop, clusterMsg{}, opStopOK, clusterStopTimeout, false)
}
