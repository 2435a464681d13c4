package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultexpr"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// TestRestartRearmsOnceTriggers documents the restart semantics: a
// restarted node gets a fresh fault parser (as in the thesis, where the
// fault parser is part of the per-node runtime), so a Once fault can fire
// again after the node restarts.
func TestRestartRearmsOnceTriggers(t *testing.T) {
	rt := newTestRuntime(t)
	var fires atomic.Int32
	rt.Register(NodeDef{
		Nickname: "n", Spec: simpleSpec(),
		Faults: []faultexpr.Spec{{
			Name: "f", Expr: faultexpr.MustParse("(n:B)"), Mode: faultexpr.Once,
		}},
		App: scriptApp{
			main: func(h *Handle) {
				h.NotifyEvent("A")
				h.NotifyEvent("go_b")
				if !h.Restarted() {
					h.Crash()
				}
			},
			inject: func(h *Handle, fault string) { fires.Add(1) },
		},
	})
	n1, _ := rt.StartNode("n", "h1")
	waitFor(t, "crash", func() bool { return n1.Outcome() == "crashed" })
	if fires.Load() != 1 {
		t.Fatalf("fires = %d before restart", fires.Load())
	}
	if _, err := rt.StartNode("n", "h2"); err != nil {
		t.Fatal(err)
	}
	rt.Wait(5 * time.Second)
	if fires.Load() != 2 {
		t.Errorf("fires = %d after restart, want 2 (fresh fault parser)", fires.Load())
	}
}

// TestWatchdogSparesHeartbeatingNode: a busy but heartbeating node must not
// be declared crashed.
func TestWatchdogSparesHeartbeatingNode(t *testing.T) {
	rt := New(Config{
		WatchdogInterval: 5 * time.Millisecond,
		WatchdogTimeout:  20 * time.Millisecond,
		Logf:             t.Logf,
	})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.Register(NodeDef{
		Nickname: "busy", Spec: simpleSpec(),
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			deadline := time.Now().Add(80 * time.Millisecond)
			for time.Now().Before(deadline) {
				h.Heartbeat()
				time.Sleep(2 * time.Millisecond)
			}
		}},
	})
	n, _ := rt.StartNode("busy", "h1")
	if !rt.Wait(5 * time.Second) {
		t.Fatal("timeout")
	}
	if n.Outcome() != "exited" {
		t.Errorf("outcome = %s; watchdog killed a live node", n.Outcome())
	}
}

// TestExitNotifyListFallback: without an EXIT state notify clause, the exit
// notification goes to every machine the spec ever notifies.
func TestExitNotifyListFallback(t *testing.T) {
	rt := newTestRuntime(t)
	var sawExit atomic.Int32
	rt.Register(NodeDef{
		Nickname: "watcher", Spec: simpleSpec(),
		Faults: []faultexpr.Spec{{
			Name: "onExit", Expr: faultexpr.MustParse("(leaver:EXIT)"), Mode: faultexpr.Once,
		}},
		App: scriptApp{
			main: func(h *Handle) {
				h.NotifyEvent("A")
				for sawExit.Load() == 0 {
					if !h.Sleep(time.Millisecond) {
						return
					}
				}
			},
			inject: func(h *Handle, fault string) { sawExit.Add(1) },
		},
	})
	rt.Register(NodeDef{
		Nickname: "leaver", Spec: simpleSpec("watcher"),
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			h.Sleep(3 * time.Millisecond)
		}},
	})
	rt.StartNode("watcher", "h1")
	rt.StartNode("leaver", "h2")
	if !rt.Wait(5 * time.Second) {
		t.Fatal("timeout")
	}
	if sawExit.Load() != 1 {
		t.Error("watcher never saw leaver's EXIT notification")
	}
}

// TestInjectionRecordPrecedesAction: the recorder logs the injection at
// dispatch, even when the action itself is a no-op, so analysis always has
// the record.
func TestInjectionRecordPrecedesAction(t *testing.T) {
	rt := newTestRuntime(t)
	rt.Register(NodeDef{
		Nickname: "n", Spec: simpleSpec(),
		Faults: []faultexpr.Spec{{
			Name: "f", Expr: faultexpr.MustParse("(n:A)"), Mode: faultexpr.Once,
		}},
		App: scriptApp{
			main:   func(h *Handle) { h.NotifyEvent("A") },
			inject: func(h *Handle, fault string) {},
		},
	})
	rt.StartNode("n", "h1")
	rt.Wait(5 * time.Second)
	tl := rt.Store().Get("n")
	inj := tl.Injections()
	if len(inj) != 1 || inj[0].Fault != "f" {
		t.Fatalf("injections = %+v", inj)
	}
	// The injection time must not precede the state change that fired it.
	var stateAt vclock.Ticks
	for _, e := range tl.Entries {
		if e.Kind == timeline.StateChange && e.NewState == "A" {
			stateAt = e.Time
		}
	}
	if inj[0].Time < stateAt {
		t.Errorf("injection at %d before trigger state at %d", inj[0].Time, stateAt)
	}
}

// TestSnapshotTimelineLiveAndDead covers both snapshot paths.
func TestSnapshotTimelineLiveAndDead(t *testing.T) {
	rt := newTestRuntime(t)
	release := make(chan struct{})
	rt.Register(NodeDef{
		Nickname: "n", Spec: simpleSpec(),
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			select {
			case <-release:
			case <-h.Done():
			}
		}},
	})
	rt.StartNode("n", "h1")
	waitFor(t, "live snapshot shows state A", func() bool {
		tl := rt.SnapshotTimeline("n")
		if tl == nil {
			return false
		}
		s, ok := tl.LastState()
		return ok && s == "A"
	})
	close(release)
	rt.Wait(5 * time.Second)
	tl := rt.SnapshotTimeline("n")
	if s, _ := tl.LastState(); s != "EXIT" {
		t.Errorf("dead snapshot last state = %q", s)
	}
	if rt.SnapshotTimeline("ghost") != nil {
		t.Error("unknown nickname returned a timeline")
	}
	names := rt.TimelineNames()
	if len(names) != 1 || names[0] != "n" {
		t.Errorf("TimelineNames = %v", names)
	}
}

// TestResetExperimentPanicsWithLiveNodes guards the central daemon
// invariant.
func TestResetExperimentPanicsWithLiveNodes(t *testing.T) {
	rt := newTestRuntime(t)
	rt.Register(NodeDef{
		Nickname: "n", Spec: simpleSpec(),
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			h.Sleep(100 * time.Millisecond)
		}},
	})
	rt.StartNode("n", "h1")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
		rt.KillAll()
		rt.Wait(time.Second)
	}()
	rt.ResetExperiment()
}

// TestLocalDelayRouting: same-host notifications honor LocalDelay rather
// than RemoteDelay.
func TestLocalDelayRouting(t *testing.T) {
	rt := New(Config{
		LocalDelay:  time.Millisecond,
		RemoteDelay: 500 * time.Millisecond, // would blow the deadline if used
		Logf:        t.Logf,
	})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	var saw atomic.Int32
	rt.Register(NodeDef{
		Nickname: "rx", Spec: simpleSpec(),
		Faults: []faultexpr.Spec{{
			Name: "f", Expr: faultexpr.MustParse("(tx:A)"), Mode: faultexpr.Once,
		}},
		App: scriptApp{
			main: func(h *Handle) {
				h.NotifyEvent("A")
				for saw.Load() == 0 {
					if !h.Sleep(time.Millisecond) {
						return
					}
				}
			},
			inject: func(h *Handle, fault string) { saw.Add(1) },
		},
	})
	rt.Register(NodeDef{
		Nickname: "tx", Spec: simpleSpec("rx"),
		App: scriptApp{main: func(h *Handle) {
			h.NotifyEvent("A")
			h.Sleep(30 * time.Millisecond)
		}},
	})
	rt.StartNode("rx", "h1")
	rt.StartNode("tx", "h1")
	if !rt.Wait(3 * time.Second) {
		t.Fatal("timeout")
	}
	if saw.Load() != 1 {
		t.Error("same-host notification not delivered within LocalDelay")
	}
}

// TestHostCrashAndReboot exercises the §3.6.4 feature the thesis left
// unimplemented: a host failure crashes every node on it; after reboot,
// nodes restart there.
func TestHostCrashAndReboot(t *testing.T) {
	rt := newTestRuntime(t)
	for _, nick := range []string{"a", "b"} {
		rt.Register(NodeDef{
			Nickname: nick, Spec: simpleSpec(),
			App: scriptApp{main: func(h *Handle) {
				h.NotifyEvent("A")
				<-h.Done()
			}},
		})
	}
	na, _ := rt.StartNode("a", "h1")
	nb, _ := rt.StartNode("b", "h1")
	if err := rt.CrashHost("h1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both nodes crashed", func() bool {
		return na.Outcome() == "crashed" && nb.Outcome() == "crashed"
	})
	waitFor(t, "both nodes deregistered", func() bool {
		return rt.Node("a") == nil && rt.Node("b") == nil
	})
	if !rt.HostDown("h1") {
		t.Error("host not marked down")
	}
	if _, err := rt.StartNode("a", "h1"); err == nil {
		t.Error("node started on a down host")
	}
	if err := rt.RebootHost("h1"); err != nil {
		t.Fatal(err)
	}
	n2, err := rt.StartNode("a", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if !n2.Restarted() {
		t.Error("post-reboot start not flagged as restart")
	}
	if err := rt.CrashHost("mars"); err == nil {
		t.Error("unknown host crash accepted")
	}
	if err := rt.RebootHost("mars"); err == nil {
		t.Error("unknown host reboot accepted")
	}
	rt.KillAll()
	rt.Wait(5 * time.Second)
}

// TestAutoNotify derives the §5.3 notify lists from fault specifications:
// watcher's fault references target, so every state of target must notify
// watcher — without any hand-written notify clauses.
func TestAutoNotify(t *testing.T) {
	var fired atomic.Int32
	plainSpec := func() *spec.StateMachine {
		m, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  A
  B
  CRASH
  EXIT
end_global_state_list
event_list
  go_b
end_event_list
state A
  go_b B
state B
state CRASH
state EXIT
`)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	defs := []NodeDef{
		{
			Nickname: "watcher", Spec: plainSpec(),
			Faults: []faultexpr.Spec{{
				Name: "f", Expr: faultexpr.MustParse("(target:B)"), Mode: faultexpr.Once,
			}},
			App: scriptApp{
				main: func(h *Handle) {
					h.NotifyEvent("A")
					for fired.Load() == 0 {
						if !h.Sleep(time.Millisecond) {
							return
						}
					}
				},
				inject: func(h *Handle, fault string) { fired.Add(1) },
			},
		},
		{
			Nickname: "target", Spec: plainSpec(),
			App: scriptApp{main: func(h *Handle) {
				h.NotifyEvent("A")
				h.Sleep(5 * time.Millisecond)
				h.NotifyEvent("go_b")
				h.Sleep(20 * time.Millisecond)
			}},
		},
	}
	given := defs[1].Spec
	AutoNotify(defs)
	// target's states now notify watcher; watcher's notify lists unchanged.
	if nl := defs[1].Spec.NotifyList("B"); len(nl) != 1 || nl[0] != "watcher" {
		t.Fatalf("derived notify list = %v", nl)
	}
	// The derived lists live in target's own copy: a machine may be shared
	// (app.MustParseSpec), so the one it was given is left as it was.
	if nl := given.NotifyList("B"); len(nl) != 0 || given == defs[1].Spec {
		t.Fatalf("AutoNotify modified the given machine: notify list %v", nl)
	}
	if nl := defs[0].Spec.NotifyList("B"); len(nl) != 0 {
		t.Fatalf("watcher gained a notify list: %v", nl)
	}

	rt := newTestRuntime(t)
	for _, d := range defs {
		if err := rt.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	rt.StartNode("watcher", "h1")
	rt.StartNode("target", "h2")
	if !rt.Wait(5 * time.Second) {
		t.Fatal("timeout")
	}
	if fired.Load() != 1 {
		t.Error("fault did not fire with derived notify lists")
	}
}
