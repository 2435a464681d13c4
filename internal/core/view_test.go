package core

import (
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/vclock"
)

// viewOf returns machine's state in n's partial view, or "".
func viewOf(n *Node, machine string) string {
	n.reg.mu.Lock()
	defer n.reg.mu.Unlock()
	s, _ := n.reg.view.StateOf(machine)
	return s
}

// TestNodeViewSnapshot drives a running node: its partial view must
// reflect the node's own state transitions.
func TestNodeViewSnapshot(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  A
  B
  CRASH
  EXIT
end_global_state_list
event_list
  go
end_event_list
state A
  go B
state B
state CRASH
state EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	step := make(chan struct{})
	if err := rt.Register(NodeDef{
		Nickname: "sv", Spec: sm,
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			<-step
			h.NotifyEvent("go")
			<-h.Done()
		}},
	}); err != nil {
		t.Fatal(err)
	}
	n, err := rt.StartNode("sv", "h1")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, n, "A")
	if s := viewOf(n, "sv"); s != "A" {
		t.Errorf("view of sv after init = %q, want A", s)
	}
	close(step)
	waitState(t, n, "B")
	if s := viewOf(n, "sv"); s != "B" {
		t.Errorf("view of sv after go = %q, want B", s)
	}
	rt.KillAll()
	rt.Wait(time.Second)
}

func waitState(t *testing.T, n *Node, want string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := n.CurrentState(); ok && s == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := n.CurrentState()
	t.Fatalf("node never reached %s (at %q)", want, s)
}
