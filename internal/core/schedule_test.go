package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/spec"
	"repro/internal/vclock"
)

// parkedApp sleeps until it is killed. Unlike waitingApp it blocks through
// the runtime's clock, so it can run under virtual time.
var parkedApp = appFunc(func(h *Handle) { h.Sleep(time.Hour) })

// TestWaitTimeoutLeavesNothingScheduled covers both ways an experiment
// ends under virtual time. A hung experiment: a node exits at 10 ms after
// starting a node that never returns; the exit wakes the completion wait,
// which must go back to waiting for what is left of its timeout, return
// false at exactly start + timeout and leave the hung node killed. A
// completed experiment: Wait returns true, and driving the clock past
// start + timeout fires no timer but the test's own Sleep and kills no
// node of the following experiment. Mutation-checked: waiting the whole
// timeout again after a wake, instead of re-checking the deadline from the
// start, returns at 60 ms and fails the first half; scheduling the timeout
// as an AfterFunc that calls KillAll (what Wait did before, minus the Stop
// the clock no longer offers) fires a second timer and kills the next
// experiment's node.
func TestWaitTimeoutLeavesNothingScheduled(t *testing.T) {
	const timeout = 50 * time.Millisecond
	v := clock.NewVirtual()
	rt := New(Config{Clock: v})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})
	defs := map[string]App{
		"hung": parkedApp,
		"starter": appFunc(func(h *Handle) {
			h.Sleep(10 * time.Millisecond)
			h.Go(func() {
				if _, err := rt.StartNode("hung", "h1"); err != nil {
					t.Error(err)
				}
			})
		}),
		"quick": appFunc(func(h *Handle) { h.Sleep(time.Millisecond) }),
		"long":  appFunc(func(h *Handle) { h.Sleep(2 * timeout) }),
	}
	for nick, app := range defs {
		if err := rt.Register(NodeDef{Nickname: nick, Spec: busSpec(t), App: app}); err != nil {
			t.Fatal(err)
		}
	}
	v.Drive()
	defer v.Release()
	start := func(nick string) *Node {
		t.Helper()
		n, err := rt.StartNode(nick, "h1")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	next := func() {
		rt.SealExperiment()
		rt.ResetExperiment()
	}

	t0 := v.NowTicks()
	start("starter")
	if rt.Wait(timeout) {
		t.Fatal("a hung experiment reported as completed")
	}
	if at := v.NowTicks() - t0; at.Duration() != timeout {
		t.Fatalf("the hung experiment's Wait returned at %v, want %v", at.Duration(), timeout)
	}
	if got := rt.Outcomes(); got["starter"] != "exited" || got["hung"] != "killed" {
		t.Fatalf("outcomes %v, want starter exited and hung killed", got)
	}
	next()

	t0 = v.NowTicks()
	start("quick")
	if !rt.Wait(timeout) {
		t.Fatal("a completed experiment reported as hung")
	}
	next()
	fired := v.Stats().FiredTimers
	long := start("long")
	v.Sleep(timeout) // past t0 + timeout; long's own deadline is later
	if n := v.Stats().FiredTimers - fired; n != 1 {
		t.Fatalf("%d timers fired while the clock passed the last deadline, want only the test's own Sleep", n)
	}
	if got := long.Outcome(); got != "running" {
		t.Fatalf("the following experiment's node is %s, want running", got)
	}
	if !rt.Wait(timeout) || long.Outcome() != "exited" {
		t.Fatalf("the following experiment's node ended %s, want exited within its timeout", long.Outcome())
	}
}

// ringSpec is a sender that cycles P -> Q -> R -> P on "step" and notifies
// the listed machines of every state.
func ringSpec(t testing.TB, notify string) *spec.StateMachine {
	t.Helper()
	sm, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  P
  Q
  R
  CRASH
  EXIT
end_global_state_list
event_list
  step
end_event_list
state P notify ` + notify + `
  step Q
state Q notify ` + notify + `
  step R
state R notify ` + notify + `
  step P
state CRASH
state EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// ringPair starts, under virtual time with distinct positive local and
// remote delays, a sender "s" on h1 that notifies "near" (h1) and "far"
// (h2), and returns the clock, the runtime and the sender's handle. The
// caller is the clock's driver until the test ends.
func ringPair(t *testing.T) (*clock.Virtual, *Runtime, *Handle) {
	t.Helper()
	v := clock.NewVirtual()
	rt := New(Config{Clock: v, LocalDelay: 20 * time.Microsecond, RemoteDelay: 150 * time.Microsecond})
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.AddHost("h2", vclock.ClockConfig{})
	defs := []NodeDef{
		{Nickname: "s", Spec: ringSpec(t, "near far"), App: parkedApp},
		{Nickname: "near", Spec: busSpec(t), App: parkedApp},
		{Nickname: "far", Spec: busSpec(t), App: parkedApp},
	}
	for _, def := range defs {
		if err := rt.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	v.Drive()
	t.Cleanup(func() {
		rt.KillAll()
		rt.Wait(0)
		v.Release()
		rt.Shutdown()
	})
	for nick, host := range map[string]string{"s": "h1", "near": "h1", "far": "h2"} {
		if _, err := rt.StartNode(nick, host); err != nil {
			t.Fatal(err)
		}
	}
	return v, rt, rt.Node("s").Handle()
}

// TestNotificationsArriveInSendOrder: a sender's state changes reach each
// receiver's view in the order they were sent, on the local hop (20 µs)
// and the remote one (150 µs) alike, whether the changes come in a burst
// within one instant or spread over several instants closer together than
// either delay. Each change is followed by one sampler per receiver,
// scheduled for the instant its delivery lands; a sampler fires after its
// own delivery and before the next (equal deadlines fire in creation
// order), so it must see exactly the state sent before it. The rounds
// repeat, so the later ones run on fired timer entries the clock reuses.
func TestNotificationsArriveInSendOrder(t *testing.T) {
	v, rt, hs := ringPair(t)
	cfg := rt.cfg
	states := []string{"P", "Q", "R"}
	var sent, near, far []string
	sample := func(into *[]string, nick string) func() {
		return func() { *into = append(*into, viewOf(rt.Node(nick), "s")) }
	}
	first := true
	change := func() {
		ev := "step"
		if first {
			ev, first = "P", false // the first event names the initial state
		}
		if err := hs.NotifyEvent(ev); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, states[len(sent)%len(states)])
		v.AfterFunc(cfg.LocalDelay, sample(&near, "near"))
		v.AfterFunc(cfg.RemoteDelay, sample(&far, "far"))
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			change()
			if round%2 == 1 {
				v.Sleep(time.Duration(i+3) * time.Microsecond) // spread over instants
			}
		}
		v.Sleep(cfg.RemoteDelay)
		want := strings.Join(sent, " ")
		if got := strings.Join(near, " "); got != want {
			t.Fatalf("round %d: the local receiver saw %q, want %q", round, got, want)
		}
		if got := strings.Join(far, " "); got != want {
			t.Fatalf("round %d: the remote receiver saw %q, want %q", round, got, want)
		}
	}
}

// TestRoutedNoteAllocatesNothing: once warm, a state notification routed
// with a positive delay allocates nothing: its delivery is a spent one the
// runtime kept, and its timer entry one the clock kept.
func TestRoutedNoteAllocatesNothing(t *testing.T) {
	v, rt, _ := ringPair(t)
	states := [...]string{"P", "Q"}
	i := 0
	route := func() {
		i++
		rt.route("h1", stateNote{From: "s", State: states[i%2]}, "far")
		v.Sleep(rt.cfg.RemoteDelay)
	}
	route()
	if got := testing.AllocsPerRun(1000, route); got != 0 {
		t.Fatalf("a routed note allocates %v objects once warm, want 0", got)
	}
	if got := viewOf(rt.Node("far"), "s"); got != states[i%2] {
		t.Fatalf("the receiver sees s in %q, want the last state routed, %q", got, states[i%2])
	}
}
