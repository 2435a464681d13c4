package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// tap records every frame a runtime hands its endpoint. A sender only
// lends a payload (transport.Transport), so the tap keeps a copy.
type tap struct {
	transport.Transport
	mu     sync.Mutex
	frames []transport.Message
}

func (p *tap) record(m transport.Message) {
	m.Payload = bytes.Clone(m.Payload)
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
	// Each endpoint registers only the node placed on its own host, as a
	// cluster member does.
	build := func(tr transport.Transport, log *logSink, host, nick string) *Runtime {
		rt := New(Config{Transport: tr, Logf: log.logf})
		t.Cleanup(func() { rt.Shutdown(); tr.Close() })
		rt.AddHost(host, vclock.ClockConfig{})
		if err := rt.Register(NodeDef{Nickname: nick, Spec: sm, App: waitingApp{}}); err != nil {
			t.Fatal(err)
		}
		rt.SetPlacement(map[string]string{"a": "h1", "b": "h2"})
		if err := rt.StartTransport(); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	p.a, p.b = build(p.tapA, p.logA, "h1", "a"), build(eps["B"], p.logB, "h2", "b")
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
			if !hostsPartitioned(p.b, "h1", "h2") {
				t.Fatal("partition not replicated")
			}
			if got, _ := p.fromB("lost", window); len(got) != 0 {
				t.Fatalf("message crossed B's partition: %+v", got)
			}
			p.a.HealHosts("h2", "h1")
			if hostsPartitioned(p.b, "h1", "h2") {
				t.Fatal("heal not replicated")
			}
		}},
		{"healall", func(t *testing.T, p *endpointPair) {
			p.a.PartitionHosts("h1", "h2")
			p.a.PartitionHosts("h2", "h9")
			p.a.HealAllPartitions()
			if hostsPartitioned(p.b, "h1", "h2") || hostsPartitioned(p.b, "h2", "h9") {
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
			if !hostDown(p.b, "h2") {
				t.Fatal("crashhost not forwarded")
			}
			waitFor(t, "node b crashed with its host", func() bool { return len(p.b.appendLiveNodes(nil)) == 0 })
			if err := p.a.RebootHost("h2"); err != nil {
				t.Fatal(err)
			}
			if hostDown(p.b, "h2") {
				t.Fatal("reboothost not forwarded")
			}
			if n, err := p.a.StartNode("b", "h2"); n != nil || err != nil {
				t.Fatalf("forwarded StartNode = (%v, %v), want (nil, nil)", n, err)
			}
			if live := p.b.appendLiveNodes(nil); len(live) != 1 || live[0] != "b" {
				t.Fatalf("after startnode on A: B live=%v", live)
			}
			if _, err := p.a.StartNode("b", "h1"); err == nil || !strings.Contains(err.Error(), "unknown node") {
				t.Fatalf("StartNode of a node A does not register, on A's own host: %v, want unknown node", err)
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
		{"an op that does not decode is logged with its sender", func(t *testing.T, p *endpointPair) {
			p.a.HealAllPartitions()
			p.tapA.mu.Lock()
			sent := p.tapA.frames
			p.tapA.mu.Unlock()
			if len(sent) != 1 || sent[0].Kind != transport.KindChaos || sent[0].From != "A" {
				t.Fatalf("A's healall went out as %+v, want one chaos frame from A", sent)
			}
			if err := p.tapA.Broadcast(transport.Message{Kind: transport.KindChaos, From: "A", Payload: []byte("not gob")}); err != nil {
				t.Fatal(err)
			}
			if !p.logB.has(`chaos op from peer "A" did not decode`) || p.logB.has(`chaos op ""`) {
				t.Fatalf("B's diagnostics do not name the sender of an undecodable op: %v", p.logB.lines)
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

// TestRemoteDropCountedWithoutLogging: a note or application message from
// a peer whose target is not executing here is discarded as route discards
// a local one (§3.6.1). A dropped note counts in DroppedNotifications, and
// with logging off neither drop boxes a log call's arguments.
func TestRemoteDropCountedWithoutLogging(t *testing.T) {
	rt := New(Config{Obs: &obs.Sink{Metrics: obs.NewRegistry()}})
	if rt.logging {
		t.Fatal("a runtime with no Logf and no logger logs")
	}
	dropped := rt.om.DroppedNotifications
	note := transport.Message{Kind: transport.KindNote, From: "s", To: "absent", State: "P"}
	app := transport.Message{Kind: transport.KindApp, From: "s", To: "absent", Payload: []byte{1}}
	drop := func() {
		rt.handleTransportMessage(note)
		rt.handleTransportMessage(app)
	}
	if got := testing.AllocsPerRun(100, drop); got != 0 {
		t.Fatalf("dropping a remote note and app message allocates %v objects, want 0", got)
	}
	if got := dropped.Value(); got != 101 { // AllocsPerRun's warm-up call and 100 runs
		t.Fatalf("DroppedNotifications reads %d after 101 dropped remote notes", got)
	}
}

// TestAddPlacementKeepsRemoteNicknames: handing AddPlacement the entries it
// already holds, as every experiment does, keeps the cached remote-nickname
// list; an entry that moves a node to another endpoint's host rebuilds it.
func TestAddPlacementKeepsRemoteNicknames(t *testing.T) {
	p := newEndpointPair(t)
	entries := []spec.NodeEntry{{Nickname: "a", Host: "h1"}, {Nickname: "b", Host: "h2"}}
	p.a.AddPlacement(entries)
	first := p.a.remoteNicknames()
	if !slices.Equal(first, []string{"b"}) {
		t.Fatalf("remote nicknames %q, want [b]", first)
	}
	p.a.AddPlacement(entries)
	if again := p.a.remoteNicknames(); unsafe.SliceData(again) != unsafe.SliceData(first) {
		t.Fatal("the same entries again rebuilt the remote-nickname list")
	}
	p.a.AddPlacement([]spec.NodeEntry{{Nickname: "a", Host: "h2"}})
	if moved := p.a.remoteNicknames(); !slices.Equal(moved, []string{"a", "b"}) {
		t.Fatalf("after a moved to h2: remote nicknames %q, want [a b]", moved)
	}
}
