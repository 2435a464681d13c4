package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// tap records every frame a runtime hands its endpoint.
type tap struct {
	transport.Transport
	mu     sync.Mutex
	frames []transport.Message
}

func (p *tap) record(m transport.Message) {
	p.mu.Lock()
	p.frames = append(p.frames, m)
	p.mu.Unlock()
}

func (p *tap) SendHost(host string, m transport.Message) error {
	p.record(m)
	return p.Transport.SendHost(host, m)
}

func (p *tap) Broadcast(m transport.Message) error {
	p.record(m)
	return p.Transport.Broadcast(m)
}

func (p *tap) sent(kind byte) [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [][]byte
	for _, m := range p.frames {
		if m.Kind == kind {
			out = append(out, m.Payload)
		}
	}
	return out
}

// logSink collects a runtime's diagnostics.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...interface{}) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) has(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

// endpointPair is a two-endpoint inproc cluster: runtime A owns h1 and
// runs node a, runtime B owns h2 and runs node b. Inproc frames are
// delivered by direct call, so an op issued on A has been applied on B by
// the time the issuing call returns.
type endpointPair struct {
	a, b       *Runtime
	ha, hb     *Handle
	tapA       *tap
	logA, logB *logSink
}

func newEndpointPair(t testing.TB) *endpointPair {
	t.Helper()
	eps, err := transport.NewLoopbackCluster(transport.KindNameInproc, map[string]string{"h1": "A", "h2": "B"})
	if err != nil {
		t.Fatal(err)
	}
	p := &endpointPair{tapA: &tap{Transport: eps["A"]}, logA: &logSink{}, logB: &logSink{}}
	sm := busSpec(t)
	build := func(tr transport.Transport, log *logSink, host string) *Runtime {
		rt := New(Config{Transport: tr, Logf: log.logf})
		t.Cleanup(func() { rt.Shutdown(); tr.Close() })
		rt.AddHost(host, vclock.ClockConfig{})
		for _, nick := range []string{"a", "b"} {
			if err := rt.Register(NodeDef{Nickname: nick, Spec: sm, App: waitingApp{}}); err != nil {
				t.Fatal(err)
			}
		}
		rt.SetPlacement(map[string]string{"a": "h1", "b": "h2"})
		if err := rt.StartTransport(); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	p.a, p.b = build(p.tapA, p.logA, "h1"), build(eps["B"], p.logB, "h2")
	na, err := p.a.StartNode("a", "h1")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := p.b.StartNode("b", "h2")
	if err != nil {
		t.Fatal(err)
	}
	p.ha, p.hb = na.Handle(), nb.Handle()
	return p
}

// fromB sends one message from node b (endpoint B) to node a and returns
// what arrives at a within the window, and how long the first arrival
// took — B's interposition layer shapes it, so this observes B's
// replicated shaping state.
func (p *endpointPair) fromB(payload string, window time.Duration) (got []AppMessage, first time.Duration) {
	start := time.Now()
	p.hb.Send("a", payload)
	for {
		m, ok := p.ha.WaitMessage(window - time.Since(start))
		if !ok {
			return got, first
		}
		if got = append(got, m); len(got) == 1 {
			first = time.Since(start)
		}
	}
}

// TestReplicatedOpsReachPeerEndpoint issues every replicated or forwarded
// chaos operation on endpoint A and checks endpoint B's observable state.
func TestReplicatedOpsReachPeerEndpoint(t *testing.T) {
	const window = 60 * time.Millisecond
	link := simnet.Link{From: "h2", To: "h1"}
	filtered := func(f simnet.Filter, check func(*testing.T) func([]AppMessage, time.Duration)) func(*testing.T, *endpointPair) {
		return func(t *testing.T, p *endpointPair) {
			p.a.InstallLinkFilter(link, "f", f)
			check(t)(p.fromB("shaped", window))
			if !p.a.RemoveLinkFilter(link, "f") {
				t.Fatal("unfilter: not present on A")
			}
			if got, _ := p.fromB("clean", window); len(got) != 1 || got[0].Payload != "clean" {
				t.Fatalf("after unfilter on A, B still shapes: %+v", got)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *endpointPair)
	}{
		{"partition/heal", func(t *testing.T, p *endpointPair) {
			p.a.PartitionHosts("h1", "h2")
			if !p.b.HostsPartitioned("h1", "h2") {
				t.Fatal("partition not replicated")
			}
			if got, _ := p.fromB("lost", window); len(got) != 0 {
				t.Fatalf("message crossed B's partition: %+v", got)
			}
			p.a.HealHosts("h2", "h1")
			if p.b.HostsPartitioned("h1", "h2") {
				t.Fatal("heal not replicated")
			}
		}},
		{"healall", func(t *testing.T, p *endpointPair) {
			p.a.PartitionHosts("h1", "h2")
			p.a.PartitionHosts("h2", "h9")
			p.a.HealAllPartitions()
			if p.b.HostsPartitioned("h1", "h2") || p.b.HostsPartitioned("h2", "h9") {
				t.Fatal("healall not replicated")
			}
		}},
		{"filter drop/unfilter", filtered(simnet.DropFilter{P: 1}, func(t *testing.T) func([]AppMessage, time.Duration) {
			return func(got []AppMessage, _ time.Duration) {
				if len(got) != 0 {
					t.Fatalf("B did not drop: %+v", got)
				}
			}
		})},
		{"filter delay/unfilter", filtered(simnet.DelayFilter{Extra: vclock.FromDuration(20 * time.Millisecond)}, func(t *testing.T) func([]AppMessage, time.Duration) {
			return func(got []AppMessage, first time.Duration) {
				if len(got) != 1 || first < 20*time.Millisecond {
					t.Fatalf("B did not delay: %+v after %v", got, first)
				}
			}
		})},
		{"filter duplicate/unfilter", filtered(simnet.DuplicateFilter{P: 1, Copies: 2}, func(t *testing.T) func([]AppMessage, time.Duration) {
			return func(got []AppMessage, _ time.Duration) {
				if len(got) != 3 {
					t.Fatalf("B sent %d copies, want 3", len(got))
				}
			}
		})},
		{"filter corrupt/unfilter", filtered(simnet.CorruptFilter{P: 1}, func(t *testing.T) func([]AppMessage, time.Duration) {
			return func(got []AppMessage, _ time.Duration) {
				if len(got) != 1 || got[0].Payload != (simnet.Corrupted{Original: "shaped"}) {
					t.Fatalf("B did not corrupt: %+v", got)
				}
			}
		})},
		{"clockstep", func(t *testing.T, p *endpointPair) {
			if err := p.a.StepHostClock("h2", 5e6); err != nil {
				t.Fatal(err)
			}
			if got := p.b.HostClock("h2").TrueStepped(); got != 5e6 {
				t.Fatalf("h2 stepped by %d on B, want 5e6", got)
			}
		}},
		{"crashhost/reboothost/startnode", func(t *testing.T, p *endpointPair) {
			if err := p.a.CrashHost("h2"); err != nil {
				t.Fatal(err)
			}
			if !p.b.HostDown("h2") {
				t.Fatal("crashhost not forwarded")
			}
			waitFor(t, "node b crashed with its host", func() bool { return len(p.b.LiveNodes()) == 0 })
			if err := p.a.RebootHost("h2"); err != nil {
				t.Fatal(err)
			}
			if p.b.HostDown("h2") {
				t.Fatal("reboothost not forwarded")
			}
			if n, err := p.a.StartNode("b", "h2"); n != nil || err != nil {
				t.Fatalf("forwarded StartNode = (%v, %v), want (nil, nil)", n, err)
			}
			if live := p.b.LiveNodes(); len(live) != 1 || live[0] != "b" {
				t.Fatalf("after startnode on A: B live=%v", live)
			}
		}},
		{"unknown host is not forwarded", func(t *testing.T, p *endpointPair) {
			if err := p.a.CrashHost("mars"); err == nil {
				t.Fatal("unknown host accepted")
			}
			if n := len(p.tapA.sent(transport.KindChaos)); n != 0 {
				t.Fatalf("%d chaos frame(s) sent for a host nobody owns", n)
			}
		}},
		{"custom corruptor stays local and warns", func(t *testing.T, p *endpointPair) {
			p.a.InstallLinkFilter(link, "custom", simnet.CorruptFilter{P: 1,
				Corrupt: func(interface{}, *rand.Rand) interface{} { return "mangled" }})
			if !p.logA.has("not a built-in") {
				t.Fatalf("no warning on A: %v", p.logA.lines)
			}
			if n := len(p.tapA.sent(transport.KindChaos)); n != 0 {
				t.Fatalf("custom filter replicated in %d frame(s)", n)
			}
			if got, _ := p.fromB("clean", window); len(got) != 1 || got[0].Payload != "clean" {
				t.Fatalf("B shapes with a filter it cannot have: %+v", got)
			}
		}},
		{"op for a host not local is logged, not re-forwarded", func(t *testing.T, p *endpointPair) {
			// A's ownership table says B owns h1's clock: the op lands on B,
			// which does not have h1.
			if err := p.a.sendChaos("h2", chaosOp{Op: "clockstep", A: "h1", Delta: 7}); err != nil {
				t.Fatal(err)
			}
			if !p.logB.has(`unknown host "h1"`) {
				t.Fatalf("no diagnostic on B: %v", p.logB.lines)
			}
			if got := p.a.HostClock("h1").TrueStepped(); got != 0 {
				t.Fatalf("op bounced back to A: h1 stepped by %d", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newEndpointPair(t)) })
	}
}

// payloadRoundTrip is the property FuzzDecodePayload checks for one
// payload type: the decoder never panics, and what it accepts survives
// encode∘decode (compared printed, which is NaN- and map-order-proof).
func payloadRoundTrip[T any](t *testing.T, b []byte) {
	v, err := transport.DecodePayload[T](b)
	if err != nil {
		return
	}
	again, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatalf("%T decoded but does not re-encode: %v", v, err)
	}
	back, err := transport.DecodePayload[T](again)
	if err != nil || fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", v) {
		t.Fatalf("round trip: %+v -> %+v (%v)", v, back, err)
	}
}

// FuzzDecodePayload fuzzes the one gob decoder as core instantiates it —
// replicated chaos ops and the application-payload envelope — seeded with
// the frames a two-endpoint run really sends.
func FuzzDecodePayload(f *testing.F) {
	p := newEndpointPair(f)
	p.a.PartitionHosts("h1", "h2")
	p.a.HealAllPartitions()
	p.a.InstallLinkFilter(simnet.Link{From: "h1", To: "h2"}, "f", simnet.DelayFilter{Extra: 3, Jitter: 2})
	p.a.InstallLinkFilter(simnet.Link{From: "h1", To: "h2"}, "c", simnet.CorruptFilter{P: 1})
	p.a.RemoveLinkFilter(simnet.Link{From: "h1", To: "h2"}, "f")
	if err := p.a.StepHostClock("h2", -5e6); err != nil {
		f.Fatal(err)
	}
	p.ha.Send("b", "hello") // corrupted on the way out: a Corrupted envelope
	p.a.RemoveLinkFilter(simnet.Link{From: "h1", To: "h2"}, "c")
	p.ha.Send("b", 42)
	ops, msgs := p.tapA.sent(transport.KindChaos), p.tapA.sent(transport.KindApp)
	if len(ops) != 7 || len(msgs) != 2 {
		f.Fatalf("captured %d chaos and %d app frames, want 7 and 2", len(ops), len(msgs))
	}
	for _, b := range append(ops, msgs...) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payloadRoundTrip[chaosOp](t, b)
		payloadRoundTrip[appPayload](t, b)
	})
}
