package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/spec"
	"repro/internal/vclock"
)

// Tests for the state the runtime recycles between experiments (inboxes,
// node waiters): reuse must never be observable by an application.

func TestInboxRecycledEmptyAcrossExperiments(t *testing.T) {
	rt, ha, hb := busPair(t)
	if !ha.Send("b", "left unread in experiment k") {
		t.Fatal("send failed")
	}
	old := hb.inboxChan()
	rt.KillAll()
	if !rt.Wait(5 * time.Second) {
		t.Fatal("nodes did not stop")
	}
	rt.ResetExperiment()

	if _, err := rt.StartNode("a", "h1"); err != nil {
		t.Fatal(err)
	}
	nb, err := rt.StartNode("b", "h2")
	if err != nil {
		t.Fatal(err)
	}
	a2, b2 := rt.Node("a").Handle().inboxChan(), nb.Handle().inboxChan()
	if a2 != old && b2 != old {
		t.Fatal("no inbox was reused: this test no longer exercises recycling")
	}
	if a2 == b2 {
		t.Fatal("two live nodes share one inbox")
	}
	for nick, h := range map[string]*Handle{"a": rt.Node("a").Handle(), "b": nb.Handle()} {
		if m, ok := h.WaitMessage(20 * time.Millisecond); ok {
			t.Errorf("%s received %+v from the previous experiment", nick, m)
		}
	}
}

func TestRestartedNodeGetsItsOwnInbox(t *testing.T) {
	rt, ha, hb := busPair(t)
	hb.Crash()
	waitFor(t, "b to finish crashing", func() bool { return rt.Node("b") == nil })
	nb, err := rt.StartNode("b", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Restarted() {
		t.Fatal("second start not flagged as a restart")
	}
	hb2 := nb.Handle()
	if hb2.inboxChan() == hb.inboxChan() {
		t.Fatal("restarted node shares its predecessor's inbox within one experiment")
	}
	// A late delivery to the dead handle stays lost; the live one works.
	hb.deliver(AppMessage{From: "a", Payload: "late"}, "a")
	if m, ok := hb2.WaitMessage(20 * time.Millisecond); ok {
		t.Fatalf("restarted node received its predecessor's message %+v", m)
	}
	ha.Send("b", "fresh")
	if m, ok := hb2.WaitMessage(time.Second); !ok || m.Payload != "fresh" {
		t.Fatalf("restarted node: ok=%v m=%+v", ok, m)
	}
}

// TestStaleWakeOnPooledWaiterEndsNoWaitEarly: a Wake that lands on a waiter
// after its goroutine deregistered stays on it as a sticky wake and is met
// by the next Sleep or WaitMessage that reuses the waiter. Both re-check
// their deadline, so it costs one loop iteration, not an early return.
func TestStaleWakeOnPooledWaiterEndsNoWaitEarly(t *testing.T) {
	rt, _, hb := busPair(t)
	n := rt.Node("b")
	w := n.addWaiter()
	n.removeWaiter(w)
	const d = 30 * time.Millisecond

	w.Wake()
	start := time.Now()
	if !hb.Sleep(d) {
		t.Fatal("Sleep reported the node stopped")
	}
	if el := time.Since(start); el < d {
		t.Fatalf("Sleep(%v) returned after %v on a stale wake", d, el)
	}
	if len(n.idleWaiters) != 1 || n.idleWaiters[0] != w {
		t.Fatal("Sleep did not reuse the pooled waiter: this test no longer exercises the pool")
	}

	w.Wake()
	start = time.Now()
	if m, ok := hb.WaitMessage(d); ok {
		t.Fatalf("WaitMessage received %+v from an empty inbox", m)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("WaitMessage(%v) returned after %v on a stale wake", d, el)
	}
}

// TestEmptyExperimentAllocBudget keeps the start-up diet from regressing
// silently: one experiment of three nodes that return at once, on a warmed
// runtime under virtual time, measured at 90 allocations when this budget
// was set (95 before inboxes, waiters and the netem generator were
// recycled or built on demand). What is left is the per-experiment state
// that must be fresh: nodes, handles, recorders, timelines, the result.
func TestEmptyExperimentAllocBudget(t *testing.T) {
	const budget = 93
	v := clock.NewVirtual()
	rt := New(Config{Clock: v, Source: v.Source()})
	defer rt.Shutdown()
	var placement []spec.NodeEntry
	for i, nick := range []string{"black", "green", "yellow"} {
		host := fmt.Sprintf("h%d", i+1)
		rt.AddHost(host, vclock.ClockConfig{})
		if err := rt.Register(NodeDef{Nickname: nick, Spec: busSpec(t), App: appFunc(func(*Handle) {})}); err != nil {
			t.Fatal(err)
		}
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: host})
	}
	cd := NewCentralDaemon(rt)
	v.Drive()
	defer v.Release()
	run := func() {
		if res, err := cd.RunExperiment(placement, time.Second); err != nil || !res.Completed {
			t.Fatalf("empty experiment: res=%+v err=%v", res, err)
		}
	}
	run()
	got := testing.AllocsPerRun(200, run)
	t.Logf("empty experiment: %v allocations", got)
	if got > budget {
		t.Fatalf("empty experiment allocates %v objects, budget %d", got, budget)
	}
}
