package probe

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// newSpecSM builds the minimal one-state spec test apps use.
func newSpecSM() (*spec.StateMachine, error) {
	return spec.ParseStateMachine(`
global_state_list
  BEGIN
  A
  CRASH
  EXIT
end_global_state_list
event_list
  go
end_event_list
state A
  go A
state CRASH
state EXIT
`)
}

func TestInstrumentedDispatch(t *testing.T) {
	hits := make(chan string, 4)
	in := NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
		h.Sleep(20 * time.Millisecond)
	}).On("f1", func(h *core.Handle) { hits <- "f1" })

	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, err := newSpecSM()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(core.NodeDef{Nickname: "n", Spec: sm, App: in}); err != nil {
		t.Fatal(err)
	}
	n, err := rt.StartNode("n", "h1")
	if err != nil {
		t.Fatal(err)
	}
	// Fire faults directly through the App interface (unit-level) since no
	// fault spec is attached.
	in.InjectFault(n.Handle(), "f1")
	in.InjectFault(n.Handle(), "mystery")
	rt.Wait(10 * time.Second)

	select {
	case got := <-hits:
		if got != "f1" {
			t.Errorf("hit = %q", got)
		}
	default:
		t.Error("f1 action not dispatched")
	}
	// The unknown fault left a note.
	foundNote := false
	for _, e := range rt.SnapshotTimeline("n").Entries {
		if e.Kind == timeline.Note && containsSub(e.Text, "mystery") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Error("unknown fault note missing")
	}
}

func TestInstrumentedOnUnknown(t *testing.T) {
	var got string
	in := NewInstrumented(nil).OnUnknown(func(h *core.Handle, fault string) { got = fault })
	in.InjectFault(nil, "weird")
	if got != "weird" {
		t.Errorf("unknown hook got %q", got)
	}
	in.Main(nil) // nil body must not panic
}

func TestCrashFaultKillsNode(t *testing.T) {
	in := NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
		<-h.Done()
	}).On("die", CrashFault())
	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, _ := newSpecSM()
	rt.Register(core.NodeDef{Nickname: "n", Spec: sm, App: in})
	n, _ := rt.StartNode("n", "h1")
	go in.InjectFault(n.Handle(), "die")
	if !rt.Wait(5 * time.Second) {
		t.Fatal("crash fault did not terminate node")
	}
	if n.Outcome() != "crashed" {
		t.Errorf("outcome = %s", n.Outcome())
	}
}

func TestDelayedCrashFault(t *testing.T) {
	in := NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
		<-h.Done()
	}).On("die", DelayedCrashFault(10*time.Millisecond, 5*time.Millisecond, 42))
	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, _ := newSpecSM()
	rt.Register(core.NodeDef{Nickname: "n", Spec: sm, App: in})
	n, _ := rt.StartNode("n", "h1")
	start := time.Now()
	go in.InjectFault(n.Handle(), "die")
	if !rt.Wait(5 * time.Second) {
		t.Fatal("delayed crash never happened")
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("crash too early: %v (dormancy not honored)", elapsed)
	}
	if n.Outcome() != "crashed" {
		t.Errorf("outcome = %s", n.Outcome())
	}
}

func TestMemoryRegion(t *testing.T) {
	r := NewMemoryRegion([]byte{1, 2, 3, 4})
	before := r.Checksum()
	snap := r.Snapshot()
	snap[0] = 99 // snapshot is a copy
	if r.Checksum() != before {
		t.Error("snapshot aliases region")
	}
	MemoryFault(r, 1)(nil) // nil handle: corrupt only
	if r.Checksum() == before {
		t.Error("memory fault did not change region")
	}
	r.Reset([]byte{1, 2, 3, 4})
	if r.Checksum() != before {
		t.Error("reset did not restore contents")
	}
	empty := NewMemoryRegion(nil)
	MemoryFault(empty, 1)(nil) // must not panic on empty region
}

func TestMessageDropper(t *testing.T) {
	d := NewMessageDropper(5)
	if d.Dropped() {
		t.Error("fresh dropper dropped")
	}
	MessageDropFault(d, 2)(nil)
	if !d.Dropped() || !d.Dropped() {
		t.Error("drop-next did not drop 2")
	}
	if d.Dropped() {
		t.Error("dropped more than requested")
	}
	MessageLossRateFault(d, 1.0)(nil)
	if !d.Dropped() {
		t.Error("loss rate 1.0 did not drop")
	}
}

func TestCPUFaultReturns(t *testing.T) {
	in := NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
	}).On("hog", CPUFault(5*time.Millisecond))
	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, _ := newSpecSM()
	rt.Register(core.NodeDef{Nickname: "n", Spec: sm, App: in})
	n, _ := rt.StartNode("n", "h1")
	done := make(chan struct{})
	go func() {
		in.InjectFault(n.Handle(), "hog")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("CPU fault never finished")
	}
	rt.Wait(5 * time.Second)
}

func TestNoteFault(t *testing.T) {
	in := NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
	}).On("noop", NoteFault())
	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	sm, _ := newSpecSM()
	rt.Register(core.NodeDef{Nickname: "n", Spec: sm, App: in})
	n, _ := rt.StartNode("n", "h1")
	in.InjectFault(n.Handle(), "noop")
	rt.Wait(5 * time.Second)
	found := false
	for _, e := range rt.SnapshotTimeline("n").Entries {
		if e.Kind == timeline.Note && containsSub(e.Text, "noop") {
			found = true
		}
	}
	if !found {
		t.Error("noop note missing")
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
