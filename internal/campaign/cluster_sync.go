package campaign

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// memberAlign is one peer's process-clock alignment: the NTP-style
// midpoint offset θ = ((t1-t0)+(t2-t3))/2 from the sync round with the
// smallest round-trip time, the standard minimum-delay filter.
type memberAlign struct {
	offsetNS int64 // member process clock minus coordinator process clock
	rttNS    int64 // round-trip time of the round behind the estimate
	ok       bool
}

// syncPing is one remote host's round trip in the current sync round:
// the stamps taken as its ping left, and — once collectPongs pairs its
// pong — the pong and the stamps taken as it was dequeued.
type syncPing struct {
	host, peer string
	mm         *obs.MemberMetrics
	okRounds   int // rounds of this mini-phase that survived

	seq      int
	sentAt   time.Time // obs clock at send, for the RTT histogram
	procSend time.Time
	refSend  vclock.Ticks

	ok       bool
	pong     syncWire
	refRecv  vclock.Ticks
	procRecv time.Time
}

// sync runs one synchronization mini-phase across the cluster:
// the in-memory exchange for hosts local to the coordinator, and real
// socket round trips — send a ping, read the remote clock on receipt,
// read the reference clock when the pong lands — for remote ones. Socket
// transit is genuinely positive, which is the property the convex-hull
// estimator needs; socket jitter is exactly the measurement noise the
// thesis's getstamps faced on its LAN. Each host's fit needs only its own
// stamps, so a round pings every remote host at once and then collects
// the round's pongs; rounds are Spacing apart. The stamps are appended to
// dst; on an error dst comes back as it was given.
func (m *Member) sync(dst []clocksync.StampedMessage) ([]clocksync.StampedMessage, error) {
	cfg := m.c.Sync
	cfg.setDefaults()
	refClock := m.rt.HostClock(m.ref)
	if refClock == nil {
		return dst, fmt.Errorf("campaign: coordinator %q does not own reference host %q", m.peer, m.ref)
	}
	// Local hosts: the ordinary in-memory exchange.
	msgs := exchangeStamps(dst, m.rt, m.ref, m.own, cfg)
	// Remote hosts: socket ping-pong. The sequence number is monotonic
	// across rounds, mini-phases and experiments, so a pong that straggled
	// past its round's timeout can never be paired with a later round's
	// reference stamps (which would fabricate a negative transit and
	// wrongly discard the experiment).
	topo := m.tr.Topology()
	pings := m.pings[:0]
	for _, host := range m.hosts {
		if peer := topo.Owner(host); peer != m.peer {
			pings = append(pings, syncPing{host: host, peer: peer, mm: m.c.Obs.MemberMetrics(peer)})
		}
	}
	m.pings = pings
	tm := m.c.Obs.TransportMetrics(m.tr.Name())
	proc := m.rt.Clock()
	msgs = slices.Grow(msgs, 2*len(pings)*cfg.Messages) // every round trip's stamp pair
	for i := 0; i < cfg.Messages && len(pings) > 0; i++ {
		if i > 0 {
			clock.SpinWait(proc, cfg.Spacing)
		}
		for j := range pings {
			p := &pings[j]
			m.syncSeq++
			p.seq, p.ok = m.syncSeq, false
			if tm != nil {
				p.sentAt = obs.Now()
			}
			p.procSend = proc.Now()
			p.refSend = refClock.Now()
			ping := transport.Message{Kind: transport.KindSyncPing, From: m.peer, ToHost: p.host}
			if err := m.sendSync(p.peer, ping, syncWire{Seq: p.seq}); err != nil {
				return dst, fmt.Errorf("campaign: sync ping to %q: %w", p.host, err)
			}
		}
		m.collectPongs(pings, refClock, tm)
		for j := range pings {
			p := &pings[j]
			if !p.ok {
				if p.mm != nil {
					p.mm.SyncRoundsLost.Inc()
				}
				continue // a lost round trip only thins the sample set
			}
			if p.mm != nil {
				p.mm.SyncRoundsOK.Inc()
			}
			m.alignPeer(p)
			msgs = append(msgs,
				clocksync.StampedMessage{
					SendHost: m.ref, RecvHost: p.host,
					SendTime: p.refSend, RecvTime: vclock.Ticks(p.pong.RemoteRecv),
				},
				clocksync.StampedMessage{
					SendHost: p.host, RecvHost: m.ref,
					SendTime: vclock.Ticks(p.pong.RemoteSend), RecvTime: p.refRecv,
				})
			p.okRounds++
		}
	}
	// Require most of the configured rounds only up to the point the
	// estimator needs: a user asking for 1-2 rounds gets the same
	// (likely unbounded, analysis-discarded) geometry as in-process,
	// not a study abort.
	need := min(cfg.Messages, 3)
	for _, p := range pings {
		if p.okRounds < need {
			return dst, fmt.Errorf("campaign: sync with host %q: only %d of %d round trips survived", p.host, p.okRounds, cfg.Messages)
		}
	}
	return msgs, nil
}

// alignPeer folds one answered round into its peer's process-clock
// alignment for trace-lane merging: NTP midpoint offset
// θ = ((t1-t0)+(t2-t3))/2, kept from the round with the smallest RTT (the
// standard minimum-delay filter). Orthogonal to the virtual-clock convex
// hull the analysis phase fits.
func (m *Member) alignPeer(p *syncPing) {
	if p.pong.ProcRecv == 0 && p.pong.ProcSend == 0 {
		return
	}
	pt0, pt3 := p.procSend.UnixNano(), p.procRecv.UnixNano()
	roundRTT := (pt3 - pt0) - (p.pong.ProcSend - p.pong.ProcRecv)
	off := ((p.pong.ProcRecv - pt0) + (p.pong.ProcSend - pt3)) / 2
	if a, exists := m.align[p.peer]; !exists || !a.ok || roundRTT < a.rttNS {
		m.align[p.peer] = memberAlign{offsetNS: off, rttNS: roundRTT, ok: true}
		if p.mm != nil {
			p.mm.ClockOffsetNS.Set(off)
			p.mm.ClockRTTNS.Set(roundRTT)
		}
	}
}
