package campaign

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/core"
)

// SyncConfig controls the synchronization-message-passing mini-phases run
// before and after each experiment (§2.3, §2.5).
type SyncConfig struct {
	// Messages is the number of round trips per (reference, host) pair
	// (the getstamps <NumberOfSyncMsgs>; default 15).
	Messages int
	// Spacing is the gap between successive round trips to one host
	// (default 200 µs). A cluster's coordinator pings every remote host
	// in the same round, so rounds, not hosts, are Spacing apart.
	Spacing time.Duration
	// Transit is the simulated one-way wire time: the sender's timestamp
	// is taken, the wire is waited out, then the receiver's (default
	// 60 µs, a LAN-ish floor).
	Transit time.Duration
}

func (c *SyncConfig) setDefaults() {
	if c.Messages <= 0 {
		c.Messages = 15
	}
	if c.Spacing <= 0 {
		c.Spacing = 200 * time.Microsecond
	}
	if c.Transit <= 0 {
		c.Transit = 60 * time.Microsecond
	}
}

// exchangeStamps runs one live mini-phase over the runtime's virtual host
// clocks: for every host of hosts but the reference, Messages round trips
// are timed. Because all clocks derive from one monotonic base, waiting
// out the transit guarantees the positive-delay property the convex-hull
// estimator relies on, while the clocks' hidden offset and drift make the
// estimation non-trivial — exactly the geometry of real hardware. The
// stamps are appended to dst, which is returned. An empty dst gets room
// for two phases' stamps: an experiment's pre- and post-sync mini-phases
// share one slice.
func exchangeStamps(dst []clocksync.StampedMessage, rt *core.Runtime, ref string, hosts []string, cfg SyncConfig) []clocksync.StampedMessage {
	cfg.setDefaults()
	clk := rt.Clock()
	refClock := rt.HostClock(ref)
	remotes := len(hosts)
	if slices.Contains(hosts, ref) {
		remotes--
	}
	n := 2 * cfg.Messages * remotes
	if cap(dst) == 0 {
		n *= 2
	}
	msgs := slices.Grow(dst, n)
	for _, host := range hosts {
		if host == ref {
			continue
		}
		hostClock := rt.HostClock(host)
		for i := 0; i < cfg.Messages; i++ {
			// ref -> host
			send := refClock.Now()
			clock.SpinWait(clk, cfg.Transit)
			recv := hostClock.Now()
			msgs = append(msgs, clocksync.StampedMessage{
				SendHost: ref, RecvHost: host, SendTime: send, RecvTime: recv,
			})
			// host -> ref
			send = hostClock.Now()
			clock.SpinWait(clk, cfg.Transit)
			recv = refClock.Now()
			msgs = append(msgs, clocksync.StampedMessage{
				SendHost: host, RecvHost: ref, SendTime: send, RecvTime: recv,
			})
			clock.SpinWait(clk, cfg.Spacing)
		}
	}
	return msgs
}

// referenceHost picks the reference machine from the sorted host names:
// the first, matching clocksync.ChooseReference's determinism. (The thesis
// picks the fastest machine; virtual clocks tick at the same base rate.)
func referenceHost(hosts []string) string {
	if len(hosts) == 0 {
		return ""
	}
	return hosts[0]
}
