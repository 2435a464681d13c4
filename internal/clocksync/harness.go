package clocksync

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/simnet"
	"repro/internal/vclock"
)

// StampedMessage is one raw synchronization message as written to the
// timestamps file by the getstamps step (§5.6): who sent, who received, and
// the local-clock readings at each end.
type StampedMessage struct {
	SendHost string
	RecvHost string
	SendTime vclock.Ticks // reading of SendHost's clock at transmission
	RecvTime vclock.Ticks // reading of RecvHost's clock at reception
}

// appendSamples appends to dst the Sample set relating remote to the
// reference machine ref. Messages between other host pairs are ignored.
func appendSamples(dst []Sample, msgs []StampedMessage, ref, remote string) []Sample {
	for _, m := range msgs {
		switch {
		case m.SendHost == ref && m.RecvHost == remote:
			dst = append(dst, Sample{Dir: RefToRemote, Ref: m.SendTime, Remote: m.RecvTime})
		case m.SendHost == remote && m.RecvHost == ref:
			dst = append(dst, Sample{Dir: RemoteToRef, Ref: m.RecvTime, Remote: m.SendTime})
		}
	}
	return dst
}

// Hosts returns the sorted set of hosts appearing in msgs.
func Hosts(msgs []StampedMessage) []string { return appendHosts(nil, msgs) }

// appendHosts is Hosts into dst's array. A sync phase names a few hosts
// over many messages, so it collects them by a linear scan and sorts only
// those.
func appendHosts(dst []string, msgs []StampedMessage) []string {
	hosts := dst[:0]
	for _, m := range msgs {
		if !slices.Contains(hosts, m.SendHost) {
			hosts = append(hosts, m.SendHost)
		}
		if !slices.Contains(hosts, m.RecvHost) {
			hosts = append(hosts, m.RecvHost)
		}
	}
	slices.Sort(hosts)
	return hosts
}

// EstimateAll computes per-host bounds relative to ref from a raw message
// set. The reference maps to the exact Identity bounds. Hosts with no
// usable messages yield an error.
func EstimateAll(msgs []StampedMessage, ref string) (map[string]Bounds, error) {
	return new(Estimator).EstimateAll(msgs, ref)
}

// EstimateAll is the package-level EstimateAll on e's scratch. The map it
// returns is the caller's.
func (e *Estimator) EstimateAll(msgs []StampedMessage, ref string) (map[string]Bounds, error) {
	e.hosts = appendHosts(e.hosts[:0], msgs)
	out := make(map[string]Bounds, len(e.hosts)+1)
	for _, h := range e.hosts {
		if h == ref {
			out[h] = Identity()
			continue
		}
		e.samples = appendSamples(e.samples[:0], msgs, ref, h)
		b, err := e.Estimate(e.samples)
		if err != nil {
			return nil, fmt.Errorf("clocksync: host %q vs reference %q: %w", h, ref, err)
		}
		out[h] = b
	}
	if _, ok := out[ref]; !ok {
		out[ref] = Identity()
	}
	return out, nil
}

// ExchangeConfig controls a simulated synchronization mini-phase.
type ExchangeConfig struct {
	// Count is the number of round trips per host pair (default 20; the
	// getstamps tool takes this as <NumberOfSyncMsgs>).
	Count int
	// Spacing is the virtual time between successive round trips (default
	// 1 ms; <TimeBetweenSyncMsgs>).
	Spacing vclock.Ticks
}

func (c *ExchangeConfig) setDefaults() {
	if c.Count <= 0 {
		c.Count = 20
	}
	if c.Spacing <= 0 {
		c.Spacing = vclock.FromMillis(1)
	}
}

// Exchange runs one synchronization mini-phase as the sequential ping-pong
// it is: every non-reference host, in name order, exchanges Count round
// trips with ref. Each message is stamped by the sender's clock, src is
// advanced by a one-way delay drawn from model, and the receiver's clock
// stamps the arrival; src ends where the last round trip left it, so a
// caller separates two mini-phases by advancing src itself.
//
// This is the reproduction of the thesis's getstamps step off the testbed:
// the "hardware clocks" are hidden-error vclocks over src, so the returned
// stamps exercise exactly the geometry the convex-hull estimator consumes
// (the campaign pipeline's mini-phases run the same loop over a runtime's
// host clocks).
func Exchange(src *vclock.ManualSource, clocks map[string]*vclock.Clock, ref string,
	model simnet.LatencyModel, rng *rand.Rand, cfg ExchangeConfig) ([]StampedMessage, error) {
	cfg.setDefaults()
	refClock := clocks[ref]
	if refClock == nil {
		return nil, fmt.Errorf("clocksync: unknown reference host %q", ref)
	}
	hosts := make([]string, 0, len(clocks))
	for h := range clocks {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	var msgs []StampedMessage
	for _, host := range hosts {
		if host == ref {
			continue
		}
		hostClock := clocks[host]
		for i := 0; i < cfg.Count; i++ {
			ping := StampedMessage{SendHost: ref, RecvHost: host, SendTime: refClock.Now()}
			src.Advance(model.Sample(rng))
			ping.RecvTime = hostClock.Now()
			pong := StampedMessage{SendHost: host, RecvHost: ref, SendTime: hostClock.Now()}
			src.Advance(model.Sample(rng))
			pong.RecvTime = refClock.Now()
			msgs = append(msgs, ping, pong)
			src.Advance(cfg.Spacing)
		}
	}
	return msgs, nil
}

// ChooseReference picks the reference machine from raw messages: the thesis
// uses the fastest machine so projections never lose precision (§5.7). With
// equal-rate virtual clocks we pick the lexicographically first host, which
// is deterministic; callers with rate knowledge can pass their own choice
// to EstimateAll instead.
func ChooseReference(msgs []StampedMessage) (string, error) {
	hosts := Hosts(msgs)
	if len(hosts) == 0 {
		return "", fmt.Errorf("clocksync: no hosts in timestamp set")
	}
	return hosts[0], nil
}
