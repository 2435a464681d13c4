package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/spec"
	"repro/internal/timeline"
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

// TestRestartTakesOverRegistration: a restarted node reuses its
// registration's recorder, view and triggers, reset; whatever still holds
// the crashed node can no longer reach them — a late notification or event
// for it changes nothing the restarted node sees.
func TestRestartTakesOverRegistration(t *testing.T) {
	rt, _, hb := busPair(t)
	old := rt.Node("b")
	old.remoteNotify(stateNote{From: "a", State: "before"})
	if s := viewOf(old, "a"); s != "before" {
		t.Fatalf("first node's view of a = %q", s)
	}
	hb.Crash()
	waitFor(t, "b to finish crashing", func() bool { return rt.Node("b") == nil })
	nb, err := rt.StartNode("b", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if viewOf(nb, "a") == "before" {
		t.Fatal("the restarted node inherited its predecessor's view")
	}
	old.remoteNotify(stateNote{From: "a", State: "stale"})
	if err := old.localEvent("A"); err == nil {
		t.Error("the crashed node accepted an event after the restart")
	}
	if s := viewOf(nb, "a"); s == "stale" {
		t.Error("a notification for the crashed node reached the restarted node's view")
	}
	if !nb.Restarted() || nb.reg.recorder.Snapshot() == nil {
		t.Fatal("restart not recorded on the shared timeline")
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
	if len(n.reg.idleWaiters) != 1 || n.reg.idleWaiters[0] != w {
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
// runtime under virtual time, whose timelines are handed back after each
// run, measured at 8 allocations when this budget was set (16 while every
// start recorded into a fresh timeline, struct and entries, the result
// was returned by pointer and the timelines were listed into a fresh
// slice; 20 while the completion wait scheduled a timer of its own, a
// closure and an escaped flag, and node completion gathered the done
// waiters into a fresh slice; 21 while each task body started a goroutine
// of its own; 30 with a second lifecycle channel, a host list per timeline
// and a waiter per completion wait; 90 before each node's header,
// recorder, trigger set, view and waiters were built once per
// registration; 95 before inboxes, waiters and the netem generator were
// recycled or built on demand). What is left is what an experiment hands
// away or what a start must not share: per node the Node (whose handle a
// straggler may still hold) and its done channel; per experiment the
// outcome table's copy.
func TestEmptyExperimentAllocBudget(t *testing.T) {
	const budget = 9
	v := clock.NewVirtual()
	rt := New(Config{Clock: v})
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
		res, err := cd.RunExperiment(placement, time.Second)
		if err != nil || !res.Completed {
			t.Fatalf("empty experiment: res=%+v err=%v", res, err)
		}
		rt.RecycleTimelines(res.Timelines)
	}
	run()
	got := testing.AllocsPerRun(200, run)
	t.Logf("empty experiment: %v allocations", got)
	if got > budget {
		t.Fatalf("empty experiment allocates %v objects, budget %d", got, budget)
	}
}

// TestRecycledTimelinesStartEmpty: the next experiment records into the
// timelines handed back to RecycleTimelines, each emptied and with its
// start's header and host list, and lists them in the slice handed back;
// a timeline the caller kept is not touched. Each experiment's nodes
// write a different number of notes, so a spare that kept its entries
// would show a stale count.
func TestRecycledTimelinesStartEmpty(t *testing.T) {
	v := clock.NewVirtual()
	rt := New(Config{Clock: v})
	defer rt.Shutdown()
	notes := 0
	var placement []spec.NodeEntry
	for i, nick := range []string{"black", "green", "yellow"} {
		host := fmt.Sprintf("h%d", i+1)
		rt.AddHost(host, vclock.ClockConfig{})
		app := appFunc(func(h *Handle) {
			for range notes {
				h.Note("n")
			}
		})
		if err := rt.Register(NodeDef{Nickname: nick, Spec: busSpec(t), App: app}); err != nil {
			t.Fatal(err)
		}
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: host})
	}
	cd := NewCentralDaemon(rt)
	v.Drive()
	defer v.Release()
	run := func(n int) []*timeline.Local {
		t.Helper()
		notes = n
		res, err := cd.RunExperiment(placement, time.Second)
		if err != nil || !res.Completed {
			t.Fatalf("experiment: res=%+v err=%v", res, err)
		}
		for i, l := range res.Timelines {
			got := 0
			for _, e := range l.Entries {
				if e.Kind == timeline.Note {
					got++
				}
			}
			want := placement[i]
			if l.Owner != want.Nickname || got != n || l.Entries[0].Kind != timeline.HostChange ||
				len(l.Hosts) != 1 || l.Hosts[0] != want.Host {
				t.Fatalf("%s's timeline: owner %s, %d notes (want %d), hosts %v, first entry %v",
					want.Nickname, l.Owner, got, n, l.Hosts, l.Entries[0].Kind)
			}
		}
		return res.Timelines
	}

	first := run(5)
	kept, keptLen := first[0], len(first[0].Entries)
	green, yellow := first[1], first[2]
	rt.RecycleTimelines(first[1:])
	second := run(1)
	if second[1] != green || second[2] != yellow {
		t.Fatal("the handed-back timelines were not recorded into")
	}
	if second[0] == kept || len(kept.Entries) != keptLen {
		t.Fatal("the timeline the caller kept was recorded into")
	}
	rt.RecycleTimelines(second)
	third := run(3)
	if unsafe.SliceData(third) != unsafe.SliceData(second) || third[0] != second[0] {
		t.Fatal("the next result was not collected into the handed-back slice and timelines")
	}
}

// TestBroadcastSteadyStateAllocatesNothing: a broadcast lists the live
// nodes into its registration's scratch, not a fresh slice, so once the
// scratch has grown, a broadcast of a boxed payload allocates nothing.
func TestBroadcastSteadyStateAllocatesNothing(t *testing.T) {
	_, ha, hb := busPair(t)
	var payload any = "ping"
	broadcast := func() {
		if n := ha.Broadcast(payload); n != 1 {
			t.Fatalf("broadcast reached %d nodes, want 1", n)
		}
		<-hb.inboxChan()
	}
	broadcast()
	if got := testing.AllocsPerRun(1000, broadcast); got != 0 {
		t.Fatalf("Handle.Broadcast allocates %v objects in steady state, want 0", got)
	}
}

// TestConcurrentBroadcastsDoNotShareScratch: two goroutines of one node
// broadcasting at once must each walk a whole list of their own; under
// -race a scratch list shared mid-loop is a reported race.
func TestConcurrentBroadcastsDoNotShareScratch(t *testing.T) {
	const each = 100
	_, ha, hb := busPair(t)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if n := ha.Broadcast(i); n != 1 {
					t.Errorf("broadcast reached %d nodes, want 1", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(hb.inboxChan()); got != 2*each {
		t.Fatalf("b received %d messages, want %d", got, 2*each)
	}
}

// TestRestartElsewhereCopiesSharedHostList: every timeline started on a
// host begins with that host's one shared host list, so a restart on
// another host must append to a copy. Two timelines that share h1's list
// and restart on different hosts keep host lists of their own.
func TestRestartElsewhereCopiesSharedHostList(t *testing.T) {
	rt := New(Config{})
	t.Cleanup(rt.Shutdown)
	for _, h := range []string{"h1", "h2", "h3"} {
		rt.AddHost(h, vclock.ClockConfig{})
	}
	for _, nick := range []string{"a", "b"} {
		if err := rt.Register(NodeDef{Nickname: nick, Spec: busSpec(t), App: waitingApp{}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.StartNode(nick, "h1"); err != nil {
			t.Fatal(err)
		}
	}
	for nick, host := range map[string]string{"a": "h2", "b": "h3"} {
		rt.Node(nick).Handle().Crash()
		waitFor(t, nick+" to finish crashing", func() bool { return rt.Node(nick) == nil })
		if _, err := rt.StartNode(nick, host); err != nil {
			t.Fatal(err)
		}
	}
	for nick, want := range map[string]string{"a": "[h1 h2]", "b": "[h1 h3]"} {
		if got := fmt.Sprint(rt.SnapshotTimeline(nick).Hosts); got != want {
			t.Errorf("%s's timeline hosts = %s, want %s", nick, got, want)
		}
	}
}
