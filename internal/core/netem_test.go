package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultexpr"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/vclock"
)

// hostsPartitioned reports whether app-bus traffic between a and b is
// blocked.
func hostsPartitioned(r *Runtime, a, b string) bool {
	r.netem.mu.Lock()
	defer r.netem.mu.Unlock()
	return r.netem.partitions[hostPair(a, b)]
}

// hostDown reports whether the named host is currently crashed.
func hostDown(r *Runtime, name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	hs, ok := r.hosts[name]
	return ok && hs.down
}

// busSpec is a trivial machine so nodes can start.
func busSpec(t testing.TB) *spec.StateMachine {
	t.Helper()
	sm, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  UP
  CRASH
  EXIT
end_global_state_list
event_list
  GO
end_event_list
state UP
state CRASH
state EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// waitingApp parks until killed; tests drive the bus through the handle.
type waitingApp struct{}

func (waitingApp) Main(h *Handle)              { <-h.Done() }
func (waitingApp) InjectFault(*Handle, string) {}

// busPair starts two nodes on two hosts and returns their handles.
func busPair(t *testing.T) (*Runtime, *Handle, *Handle) {
	t.Helper()
	rt := New(Config{})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.AddHost("h2", vclock.ClockConfig{})
	for _, nick := range []string{"a", "b"} {
		if err := rt.Register(NodeDef{Nickname: nick, Spec: busSpec(t), App: waitingApp{}}); err != nil {
			t.Fatal(err)
		}
	}
	na, err := rt.StartNode("a", "h1")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := rt.StartNode("b", "h2")
	if err != nil {
		t.Fatal(err)
	}
	return rt, na.Handle(), nb.Handle()
}

func recvWithin(t *testing.T, h *Handle, d time.Duration) (AppMessage, bool) {
	t.Helper()
	return h.WaitMessage(d)
}

func TestPartitionBlocksAppBus(t *testing.T) {
	rt, ha, hb := busPair(t)
	if !ha.Send("b", "hello") {
		t.Fatal("baseline send failed")
	}
	if m, ok := recvWithin(t, hb, time.Second); !ok || m.Payload != "hello" {
		t.Fatalf("baseline receive: ok=%v m=%+v", ok, m)
	}

	rt.PartitionHosts("h1", "h2")
	if !hostsPartitioned(rt, "h1", "h2") {
		t.Fatal("partition not recorded")
	}
	if !ha.Send("b", "lost") {
		t.Fatal("partitioned send should report true (datagram loss is silent)")
	}
	if m, ok := recvWithin(t, hb, 50*time.Millisecond); ok {
		t.Fatalf("message crossed a partition: %+v", m)
	}

	rt.HealHosts("h1", "h2")
	ha.Send("b", "healed")
	if m, ok := recvWithin(t, hb, time.Second); !ok || m.Payload != "healed" {
		t.Fatalf("after heal: ok=%v m=%+v", ok, m)
	}
}

func TestLinkFilterDropDelayDuplicateCorrupt(t *testing.T) {
	rt, ha, hb := busPair(t)
	link := simnet.Link{From: "h1", To: "h2"}

	rt.InstallLinkFilter(link, "drop", simnet.DropFilter{P: 1})
	ha.Send("b", "gone")
	if m, ok := recvWithin(t, hb, 50*time.Millisecond); ok {
		t.Fatalf("message survived P=1 drop: %+v", m)
	}
	if !rt.RemoveLinkFilter(link, "drop") {
		t.Fatal("RemoveLinkFilter: not found")
	}

	rt.InstallLinkFilter(link, "dup", simnet.DuplicateFilter{P: 1, Copies: 2})
	ha.Send("b", "multi")
	for i := 0; i < 3; i++ {
		if m, ok := recvWithin(t, hb, time.Second); !ok || m.Payload != "multi" {
			t.Fatalf("copy %d: ok=%v m=%+v", i, ok, m)
		}
	}
	rt.RemoveLinkFilter(link, "dup")

	rt.InstallLinkFilter(link, "corrupt", simnet.CorruptFilter{P: 1})
	ha.Send("b", "clean")
	m, ok := recvWithin(t, hb, time.Second)
	if !ok {
		t.Fatal("corrupted message not delivered")
	}
	if c, isC := m.Payload.(simnet.Corrupted); !isC || c.Original != "clean" {
		t.Fatalf("payload = %#v, want Corrupted{clean}", m.Payload)
	}
	rt.RemoveLinkFilter(link, "corrupt")

	rt.InstallLinkFilter(link, "slow", simnet.DelayFilter{Extra: vclock.FromDuration(30 * time.Millisecond)})
	start := time.Now()
	ha.Send("b", "late")
	if _, ok := recvWithin(t, hb, time.Second); !ok {
		t.Fatal("delayed message never arrived")
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("delayed message arrived after %v, want >= ~30ms", el)
	}
}

func TestResetExperimentClearsNetemAndHosts(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.AddHost("h2", vclock.ClockConfig{})
	rt.PartitionHosts("h1", "h2")
	rt.InstallLinkFilter(simnet.Link{From: "h1", To: "h2"}, "f", simnet.DropFilter{P: 1})
	if err := rt.CrashHost("h2"); err != nil {
		t.Fatal(err)
	}
	if err := rt.StepHostClock("h1", 5e6); err != nil {
		t.Fatal(err)
	}
	epoch := netemEpoch(rt)

	rt.ResetExperiment()

	if hostsPartitioned(rt, "h1", "h2") {
		t.Error("partition survived reset")
	}
	if got := rt.HostClock("h1").TrueStepped(); got != 0 {
		t.Errorf("clock step survived reset: %d", got)
	}
	if rt.RemoveLinkFilter(simnet.Link{From: "h1", To: "h2"}, "f") {
		t.Error("link filter survived reset")
	}
	if hostDown(rt, "h2") {
		t.Error("crashed host not rebooted by reset")
	}
	if netemEpoch(rt) == epoch {
		t.Error("epoch did not advance")
	}
}

// netemEpoch is the runtime's experiment epoch.
func netemEpoch(rt *Runtime) uint64 {
	rt.netem.mu.Lock()
	defer rt.netem.mu.Unlock()
	return rt.netem.epoch
}

// TestNetemLazySeedParity pins the lazily built generator to the stream an
// eager rand.New(rand.NewSource(seed)) draws: after a reset, after a
// mid-experiment SeedNetem, and after the reset that follows it.
func TestNetemLazySeedParity(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	link := simnet.Link{From: "h1", To: "h2"}
	drop := simnet.DropFilter{P: 0.5}
	check := func(when string, seed int64) {
		t.Helper()
		eager := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			want := drop.Filter("h1", "h2", nil, eager).Drop
			fate, blocked := rt.shapeAppMessage("h1", "h2", nil)
			if blocked || fate.Drop != want {
				t.Fatalf("%s, seed %d, draw %d: drop=%v blocked=%v, eager generator says drop=%v",
					when, seed, i, fate.Drop, blocked, want)
			}
		}
	}

	rt.SeedNetem(42)
	rt.ResetExperiment()
	// Messages no filter sees must not advance the stream.
	rt.PartitionHosts("h1", "h3")
	rt.shapeAppMessage("h1", "h3", nil)
	rt.shapeAppMessage("h2", "h1", nil)
	rt.InstallLinkFilter(link, "lossy", drop)
	check("after reset", 42)

	rt.SeedNetem(7)
	check("after SeedNetem mid-experiment", 7)

	rt.ResetExperiment()
	rt.InstallLinkFilter(link, "lossy", drop)
	check("after the next reset", 7)
}

// TestNetemReseedsInPlace: the runtime keeps one generator and reseeds it
// in place, and what it draws for seeds 1, 7 and 42, after several resets
// each, is what a fresh generator of the seed draws — the jitter of a
// delay filter shows each Int63n draw whole.
func TestNetemReseedsInPlace(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	link := simnet.Link{From: "h1", To: "h2"}
	jitter := simnet.DelayFilter{Jitter: 1 << 40}
	var rng *rand.Rand
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{1, 7, 42} {
			rt.SeedNetem(seed)
			for reset := 0; reset < 2; reset++ {
				rt.ResetExperiment()
				rt.InstallLinkFilter(link, "jitter", jitter)
				fresh := rand.New(rand.NewSource(seed))
				for i := 0; i < 16; i++ {
					want := jitter.Filter("h1", "h2", nil, fresh).Delay
					if fate, _ := rt.shapeAppMessage("h1", "h2", nil); fate.Delay != want {
						t.Fatalf("round %d, seed %d, reset %d, draw %d: delay %d, a fresh generator draws %d",
							round, seed, reset, i, fate.Delay, want)
					}
				}
				if rng == nil {
					rng = rt.netem.rng
				} else if rt.netem.rng != rng {
					t.Fatalf("round %d, seed %d: the runtime built another generator", round, seed)
				}
			}
		}
	}
}

func TestExpAfterFuncScopedToEpoch(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	fired := make(chan struct{}, 2)
	rt.ExpAfterFunc(30*time.Millisecond, func() { fired <- struct{}{} })
	rt.ResetExperiment() // advances the epoch: the timer must not fire
	select {
	case <-fired:
		t.Fatal("timer from a previous experiment fired")
	case <-time.After(80 * time.Millisecond):
	}
	rt.ExpAfterFunc(10*time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("current-epoch timer never fired")
	}
}

func TestActionFaultDispatchesToHook(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})

	dispatched := make(chan faultexpr.Spec, 1)
	rt.SetFaultActionHook(func(n *Node, f faultexpr.Spec) { dispatched <- f })

	fault, ok, err := faultexpr.ParseSpecLine("cut (a:UP) once partition(h1)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := rt.Register(NodeDef{
		Nickname: "a", Spec: busSpec(t), Faults: []faultexpr.Spec{fault},
		App: appFunc(func(h *Handle) {
			h.NotifyEvent("UP")
			<-h.Done()
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StartNode("a", "h1"); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-dispatched:
		if f.Action == nil || f.Action.Name != "partition" {
			t.Errorf("dispatched %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("action fault never dispatched")
	}
	rt.KillAll()
}

// appFunc adapts a function to App with a no-op InjectFault.
type appFunc func(h *Handle)

func (f appFunc) Main(h *Handle)            { f(h) }
func (appFunc) InjectFault(*Handle, string) {}
