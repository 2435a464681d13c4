package chaos

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/spec"
	"repro/internal/vclock"
)

func mustCall(t *testing.T, src string) *faultexpr.ActionCall {
	t.Helper()
	call, err := faultexpr.ParseActionCall(src)
	if err != nil {
		t.Fatal(err)
	}
	return call
}

func mustAction(t *testing.T, src string) Action {
	t.Helper()
	a, err := ParseAction(mustCall(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestParseActionRegistry(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"partition(h1|h2,h3)", "partition"},
		{"heal()", "heal"},
		{"drop(h1,h2,0.5)", "drop"},
		{"delay(*,h2,5ms,1ms)", "delay"},
		{"duplicate(h1,*,0.3,2)", "duplicate"},
		{"corrupt(h1,h2,0.1)", "corrupt"},
		{"crash(h1)", "crash"},
		{"crashrestart(h1,20ms)", "crashrestart"},
		{"clockstep(h2,-3ms)", "clockstep"},
	}
	for _, c := range cases {
		a := mustAction(t, c.src)
		if a.Name() != c.want {
			t.Errorf("%s: Name() = %q, want %q", c.src, a.Name(), c.want)
		}
	}
}

func TestParseActionErrors(t *testing.T) {
	bad := []string{
		"teleport(h1)",           // unknown action
		"drop(h1,h2)",            // missing probability
		"drop(h1,h2,1.5)",        // probability out of range
		"delay(h1,h2,xyz)",       // bad duration
		"duplicate(h1,h2,0.5,0)", // zero copies
		"crash()",                // missing host
		"crashrestart(h1,0s)",    // non-positive restart delay
		"clockstep(h1)",          // missing delta
		"partition()",            // no groups
	}
	for _, src := range bad {
		if _, err := ParseAction(mustCall(t, src)); err == nil {
			t.Errorf("%s: want parse error", src)
		}
	}
}

func TestHostRefs(t *testing.T) {
	cases := map[string][]string{
		"partition(h1|h2,h3)":  {"h1", "h2", "h3"},
		"heal(h1|h2)":          {"h1", "h2"},
		"drop(h1,*,0.5)":       {"h1"},
		"delay(*,*,1ms)":       nil,
		"duplicate(h1,h2,1)":   {"h1", "h2"},
		"corrupt(*,h3,0.2)":    {"h3"},
		"crash(h2)":            {"h2"},
		"crashrestart(h2,1ms)": {"h2"},
		"clockstep(h3,1ms)":    {"h3"},
	}
	for src, want := range cases {
		got := HostRefs(mustAction(t, src))
		if len(got) != len(want) {
			t.Errorf("%s: HostRefs = %v, want %v", src, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: HostRefs = %v, want %v", src, got, want)
			}
		}
	}
}

func TestValidateSpecsRejectsUnknownHost(t *testing.T) {
	fault, ok, err := faultexpr.ParseSpecLine("cut (a:UP) once partition(h9|h1)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	defs := []core.NodeDef{{Nickname: "a", Faults: []faultexpr.Spec{fault}}}
	if err := ValidateSpecs(defs, []string{"h1", "h2"}); err == nil {
		t.Error("unknown host h9 passed validation")
	}
	// Without a host list only syntax is checked.
	if err := ValidateSpecs(defs, nil); err != nil {
		t.Errorf("syntax-only validation failed: %v", err)
	}
	// Wildcards are always legal.
	wild, ok, err := faultexpr.ParseSpecLine("d (a:UP) always drop(*,h1,0.5)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	defs[0].Faults = []faultexpr.Spec{wild}
	if err := ValidateSpecs(defs, []string{"h1"}); err != nil {
		t.Errorf("wildcard link rejected: %v", err)
	}
}

// The *OnSim tests run the actions on the simulated testbed the campaign
// engine uses under virtual time: a core.Runtime on a clock.Virtual, one
// node per host, application-bus sends between them.

var nicks = []string{"n1", "n2", "n3"} // nK lives on host hK

// simBed starts a 3-host runtime on a virtual clock with an idle node on
// every host. The calling test is the clock's driver until cleanup.
func simBed(t *testing.T) (*clock.Virtual, *core.Runtime) {
	t.Helper()
	v := clock.NewVirtual()
	rt := core.New(core.Config{Clock: v, Source: v.Source(), Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	sm, err := spec.ParseStateMachine(upSpec)
	if err != nil {
		t.Fatal(err)
	}
	v.Drive()
	t.Cleanup(v.Release)
	for i, nick := range nicks {
		host := "h" + nick[1:]
		rt.AddHost(host, vclock.ClockConfig{Offset: vclock.Ticks(i) * 1e6})
		idle := appFunc(func(h *core.Handle) { h.Sleep(time.Hour) })
		if err := rt.Register(core.NodeDef{Nickname: nick, Spec: sm, App: idle}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.StartNode(nick, host); err != nil {
			t.Fatal(err)
		}
	}
	return v, rt
}

// sendAll sends one message over every directed host pair.
func sendAll(rt *core.Runtime) {
	for _, from := range nicks {
		for _, to := range nicks {
			if n := rt.Node(from); n != nil && from != to {
				n.Handle().Send(to, "m")
			}
		}
	}
}

// received drains a node's inbox and reports how many messages were in it.
func received(t *testing.T, rt *core.Runtime, nick string) int {
	t.Helper()
	n := rt.Node(nick)
	if n == nil {
		t.Fatalf("node %s is not running", nick)
	}
	inbox := n.Handle().Inbox()
	count := len(inbox)
	for i := 0; i < count; i++ {
		<-inbox
	}
	return count
}

func TestPartitionActionOnSim(t *testing.T) {
	_, rt := simBed(t)
	a := mustAction(t, "partition(h1|h2,h3)")
	if err := a.Apply(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	// h1 is cut from h2 and h3: it receives nothing; h2<->h3 still flows.
	if n := received(t, rt, "n1"); n != 0 {
		t.Errorf("h1 received %d messages across the split", n)
	}
	if n2, n3 := received(t, rt, "n2"), received(t, rt, "n3"); n2 != 1 || n3 != 1 {
		t.Errorf("h2/h3 = %d/%d, want 1/1 (h3<->h2 only)", n2, n3)
	}

	if err := a.Revert(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	for _, nick := range nicks {
		if n := received(t, rt, nick); n != 2 {
			t.Errorf("after revert %s received %d, want 2", nick, n)
		}
	}
}

func TestSingleGroupPartitionIsolates(t *testing.T) {
	_, rt := simBed(t)
	if err := mustAction(t, "partition(h2)").Apply(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 0 {
		t.Errorf("isolated h2 received %d", n)
	}
	if n1, n3 := received(t, rt, "n1"), received(t, rt, "n3"); n1 != 1 || n3 != 1 {
		t.Errorf("h1/h3 = %d/%d, want 1/1", n1, n3)
	}
}

func TestHealActionOnSim(t *testing.T) {
	_, rt := simBed(t)
	if err := mustAction(t, "partition(h1|h2|h3)").Apply(rt); err != nil {
		t.Fatal(err)
	}
	if err := mustAction(t, "heal()").Apply(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	for _, nick := range nicks {
		if n := received(t, rt, nick); n != 2 {
			t.Errorf("after heal() %s received %d, want 2", nick, n)
		}
	}
}

func TestLinkActionsInstallAndRevert(t *testing.T) {
	_, rt := simBed(t)
	drop := mustAction(t, "drop(h1,h2,1)")
	if err := drop.Apply(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 1 { // lost the h1->h2 message, kept h3->h2
		t.Errorf("h2 received %d, want 1", n)
	}
	if err := drop.Revert(rt); err != nil {
		t.Fatal(err)
	}
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 2 {
		t.Errorf("after revert h2 received %d, want 2", n)
	}
}

func TestCrashRestartOnSim(t *testing.T) {
	v, rt := simBed(t)
	if err := mustAction(t, "crashrestart(h2,1ms)").Apply(rt); err != nil {
		t.Fatal(err)
	}
	if !rt.HostDown("h2") {
		t.Fatal("host up after the crash")
	}
	v.Sleep(time.Microsecond) // let the victim's goroutine notice and finish
	if rt.Node("n2") != nil {
		t.Fatal("n2 survived its host's crash")
	}
	sendAll(rt) // nothing listens on h2
	v.Sleep(2 * time.Millisecond)
	if rt.HostDown("h2") {
		t.Error("host still down after the scheduled restart")
	}
	n2 := rt.Node("n2")
	if n2 == nil || !n2.Restarted() {
		t.Fatalf("n2 not restarted with its host: %v", n2)
	}
	// A rebooted process starts with an empty inbox and hears new traffic.
	if n := received(t, rt, "n2"); n != 0 {
		t.Errorf("restarted n2 found %d messages sent while it was down", n)
	}
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 2 {
		t.Errorf("restarted n2 received %d, want 2", n)
	}
}

func TestClockStepOnSim(t *testing.T) {
	_, rt := simBed(t)
	clk := rt.HostClock("h3")
	before := clk.Now()
	step := mustAction(t, "clockstep(h3,5ms)")
	if err := step.Apply(rt); err != nil {
		t.Fatal(err)
	}
	// Virtual time stands still between the two readings, so the
	// difference is the step alone (less the tick by which readings of one
	// instant are kept strictly increasing).
	if diff := clk.Now() - before; diff < vclock.FromMillis(5)-1 || diff > vclock.FromMillis(5) {
		t.Errorf("clock advanced by %v, want 5ms", diff.Duration())
	}
	if err := step.Revert(rt); err != nil {
		t.Fatal(err)
	}
	if left := clk.TrueStepped(); left != 0 {
		t.Errorf("%v of step left after revert", left.Duration())
	}
	if err := mustAction(t, "clockstep(h9,5ms)").Apply(rt); err == nil {
		t.Error("stepping an unknown host's clock succeeded")
	}
}

func TestEngineDispatchAndAutoRevert(t *testing.T) {
	v, rt := simBed(t)
	e := Attach(rt, 7)
	spec, ok, err := faultexpr.ParseSpecLine("cut (a:X) once partition(h1|h2,h3) 2ms")
	if err != nil || !ok {
		t.Fatal(err)
	}
	e.Dispatch(spec)
	sendAll(rt)
	if n := received(t, rt, "n1"); n != 0 {
		t.Errorf("h1 received %d during the split", n)
	}
	v.Sleep(3 * time.Millisecond) // past the 2ms revert timer
	sendAll(rt)
	if n := received(t, rt, "n1"); n != 2 {
		t.Errorf("after auto-revert h1 received %d, want 2", n)
	}
}

// TestOverlappingRevertWindowsExtend: when an `always` fault re-fires
// inside its own auto-revert window, the earlier pending revert must not
// cut the refreshed fault short — the latest firing's window governs.
func TestOverlappingRevertWindowsExtend(t *testing.T) {
	v, rt := simBed(t)
	e := Attach(rt, 7)
	spec, ok, err := faultexpr.ParseSpecLine("flaky (a:X) always drop(h1,h2,1) 2ms")
	if err != nil || !ok {
		t.Fatal(err)
	}
	e.Dispatch(spec) // t=0: window [0, 2ms)
	v.Sleep(time.Millisecond)
	e.Dispatch(spec) // t=1ms: window extends to [1ms, 3ms)
	// t=2.5ms: inside the second window; the first revert (t=2ms) must
	// not have removed the filter.
	v.Sleep(1500 * time.Microsecond)
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 1 { // h1->h2 still dropped; only h3->h2 arrives
		t.Errorf("h2 received %d at t=2.5ms, want 1 (drop window cut short by stale revert)", n)
	}
	// After the second window expires the link is clean again.
	v.Sleep(time.Millisecond)
	sendAll(rt)
	if n := received(t, rt, "n2"); n != 2 {
		t.Errorf("h2 received %d after expiry, want 2", n)
	}
}

const upSpec = `
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
`

func TestAttachDrivesRuntimePartition(t *testing.T) {
	rt := core.New(core.Config{})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.AddHost("h2", vclock.ClockConfig{})
	Attach(rt, 1)

	sm, err := spec.ParseStateMachine(upSpec)
	if err != nil {
		t.Fatal(err)
	}
	fault, ok, err := faultexpr.ParseSpecLine("cut (a:UP) once partition(h1|h2)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	ready := make(chan struct{})
	if err := rt.Register(core.NodeDef{
		Nickname: "a", Spec: sm, Faults: []faultexpr.Spec{fault},
		App: appFunc(func(h *core.Handle) {
			h.NotifyEvent("UP")
			close(ready)
			<-h.Done()
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StartNode("a", "h1"); err != nil {
		t.Fatal(err)
	}
	<-ready
	// The fault fired on UP; the partition must now be installed.
	deadline := time.Now().Add(2 * time.Second)
	for !rt.HostsPartitioned("h1", "h2") {
		if time.Now().After(deadline) {
			t.Fatal("partition never installed by the dispatched action")
		}
		time.Sleep(time.Millisecond)
	}
	rt.KillAll()
}

// appFunc adapts a function to core.App with a no-op InjectFault.
type appFunc func(h *core.Handle)

func (f appFunc) Main(h *core.Handle)            { f(h) }
func (appFunc) InjectFault(*core.Handle, string) {}
