package campaign

import (
	"fmt"
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

// sync runs one synchronization mini-phase across the cluster:
// the in-memory exchange for hosts local to the coordinator, and real
// socket round trips — send a ping, read the remote clock on receipt,
// read the reference clock when the pong lands — for remote ones. Socket
// transit is genuinely positive, which is the property the convex-hull
// estimator needs; socket jitter is exactly the measurement noise the
// thesis's getstamps faced on its LAN.
func (m *Member) sync() ([]clocksync.StampedMessage, error) {
	cfg := m.c.Sync
	cfg.setDefaults()
	refClock := m.rt.HostClock(m.ref)
	if refClock == nil {
		return nil, fmt.Errorf("campaign: coordinator %q does not own reference host %q", m.peer, m.ref)
	}
	// Local hosts: the ordinary in-memory exchange.
	msgs := exchangeStamps(m.rt, m.ref, cfg)
	// Remote hosts: socket ping-pong. The sequence number is monotonic
	// across mini-phases and experiments, so a pong that straggled past
	// its round's timeout can never be paired with a later round's
	// reference stamps (which would fabricate a negative transit and
	// wrongly discard the experiment).
	topo := m.tr.Topology()
	tm := m.c.Obs.TransportMetrics(m.tr.Name())
	proc := m.rt.Clock()
	for _, host := range m.hosts {
		if topo.Owner(host) == m.peer {
			continue
		}
		peer := topo.Owner(host)
		mm := m.c.Obs.MemberMetrics(peer)
		okRounds := 0
		for i := 0; i < cfg.Messages; i++ {
			m.syncSeq++
			seq := m.syncSeq
			var rtt time.Time
			if tm != nil {
				rtt = obs.Now()
			}
			procSend := proc.Now()
			refSend := refClock.Now()
			body, err := transport.EncodePayload(syncWire{Seq: seq})
			if err == nil {
				err = m.tr.SendHost(host, transport.Message{Kind: transport.KindSyncPing, From: m.peer, ToHost: host, Payload: body})
			}
			if err != nil {
				return nil, fmt.Errorf("campaign: sync ping to %q: %w", host, err)
			}
			pong, ok := m.awaitPong(host, seq)
			if !ok {
				if mm != nil {
					mm.SyncRoundsLost.Inc()
				}
				continue // a lost round trip only thins the sample set
			}
			refRecv := refClock.Now()
			procRecv := proc.Now()
			if tm != nil {
				tm.RTTSeconds.ObserveSince(rtt)
			}
			if mm != nil {
				mm.SyncRoundsOK.Inc()
			}
			// Process-clock alignment for trace-lane merging: NTP midpoint
			// offset θ = ((t1-t0)+(t2-t3))/2, kept from the round with the
			// smallest RTT (the standard minimum-delay filter). Orthogonal
			// to the virtual-clock convex hull the analysis phase fits.
			if pong.ProcRecv != 0 || pong.ProcSend != 0 {
				pt0, pt3 := procSend.UnixNano(), procRecv.UnixNano()
				roundRTT := (pt3 - pt0) - (pong.ProcSend - pong.ProcRecv)
				off := ((pong.ProcRecv - pt0) + (pong.ProcSend - pt3)) / 2
				if a, exists := m.align[peer]; !exists || !a.ok || roundRTT < a.rttNS {
					m.align[peer] = memberAlign{offsetNS: off, rttNS: roundRTT, ok: true}
					if mm != nil {
						mm.ClockOffsetNS.Set(off)
						mm.ClockRTTNS.Set(roundRTT)
					}
				}
			}
			msgs = append(msgs,
				clocksync.StampedMessage{
					SendHost: m.ref, RecvHost: host,
					SendTime: refSend, RecvTime: vclock.Ticks(pong.RemoteRecv),
				},
				clocksync.StampedMessage{
					SendHost: host, RecvHost: m.ref,
					SendTime: vclock.Ticks(pong.RemoteSend), RecvTime: refRecv,
				})
			okRounds++
			clock.SpinWait(m.rt.Clock(), cfg.Spacing)
		}
		// Require most of the configured rounds only up to the point the
		// estimator needs: a user asking for 1-2 rounds gets the same
		// (likely unbounded, analysis-discarded) geometry as in-process,
		// not a study abort.
		need := cfg.Messages
		if need > 3 {
			need = 3
		}
		if okRounds < need {
			return nil, fmt.Errorf("campaign: sync with host %q: only %d of %d round trips survived", host, okRounds, cfg.Messages)
		}
	}
	return msgs, nil
}
