package core

import (
	"testing"
	"time"
)

// Tests for the state the runtime recycles between experiments (inboxes,
// node waiters): reuse must never be observable by an application.

// stopAll kills every live node and waits for the runtime to go idle, as
// the end of an experiment does.
func stopAll(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.KillAll()
	if !rt.Wait(5 * time.Second) {
		t.Fatal("nodes did not stop")
	}
}

func TestInboxRecycledEmptyAcrossExperiments(t *testing.T) {
	rt, ha, hb := busPair(t)
	if !ha.Send("b", "left unread in experiment k") {
		t.Fatal("send failed")
	}
	old := hb.inboxChan()
	stopAll(t, rt)
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
