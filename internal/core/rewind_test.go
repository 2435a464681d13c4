package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultexpr"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// TestRewindMatchesFresh: a runtime rewound after it ran an experiment —
// its virtual clock advanced with a timer pending, a host clock stepped
// and read, traffic shaping reseeded, a fault-action hook attached, other
// notification delays — is one New and AddHost built with the rewind's
// delays: its clock reads zero, it has no hook and the same delays, the
// same experiment records the same timeline (a node on the jitter host
// that sleeps past the watchdog's timeout and is crashed at a scan counted
// from zero), and a lossy link filter draws the same fates, those of seed
// 1. Mutation checks, each in a scratch copy of the module: skipping the
// clock's rewind, the host clocks' reset, the watchdog's restart, the
// reseed or the hook's detach fails this test.
func TestRewindMatchesFresh(t *testing.T) {
	const local, remote = 20 * time.Microsecond, 150 * time.Microsecond
	type testbed struct {
		rt *Runtime
		v  *clock.Virtual
		cd *CentralDaemon
	}
	build := func(local, remote time.Duration) testbed {
		v := clock.NewVirtual()
		rt := New(Config{Clock: v, LocalDelay: local, RemoteDelay: remote,
			WatchdogInterval: 700 * time.Microsecond, WatchdogTimeout: 3 * time.Millisecond})
		t.Cleanup(rt.Shutdown)
		rt.AddHost("h1", vclock.ClockConfig{})
		rt.AddHost("h2", vclock.ClockConfig{Offset: 5e6, DriftPPM: 80, Jitter: 300, Seed: 5})
		quiet := appFunc(func(h *Handle) {
			h.NotifyEvent("UP")
			h.Sleep(time.Hour)
		})
		if err := rt.Register(NodeDef{Nickname: "quiet", Spec: busSpec(t), App: quiet}); err != nil {
			t.Fatal(err)
		}
		return testbed{rt, v, NewCentralDaemon(rt)}
	}
	experiment := func(tb testbed) *timeline.Local {
		t.Helper()
		tb.v.Drive()
		defer tb.v.Release()
		res, err := tb.cd.RunExperiment([]spec.NodeEntry{{Nickname: "quiet", Host: "h2"}}, time.Second)
		if err != nil || !res.Completed || res.Outcomes["quiet"] != "crashed" {
			t.Fatalf("experiment: err=%v completed=%v outcomes=%v; want the watchdog's crash", err, res.Completed, res.Outcomes)
		}
		return res.Timelines[0]
	}
	draws := func(rt *Runtime) []bool {
		rt.ResetExperiment()
		rt.InstallLinkFilter(simnet.Link{From: "h1", To: "h2"}, "lossy", simnet.DropFilter{P: 0.5})
		var out []bool
		for range 64 {
			fate, _ := rt.shapeAppMessage("h1", "h2", nil)
			out = append(out, fate.Drop)
		}
		return out
	}

	fresh := build(local, remote)
	used := build(time.Millisecond, 2*time.Millisecond)
	experiment(used)
	used.rt.SetFaultActionHook(func(*Node, faultexpr.Spec) {})
	used.rt.SeedNetem(7)
	if err := used.rt.StepHostClock("h2", 4e6); err != nil {
		t.Fatal(err)
	}
	used.rt.HostClock("h2").Now()
	used.v.AfterFunc(time.Hour, func() {})
	used.rt.Rewind(local, remote)

	if now := used.v.NowTicks(); now != 0 {
		t.Errorf("the rewound clock reads %v, want 0", now.Duration())
	}
	if used.rt.faultActionHook() != nil {
		t.Error("the fault-action hook survived the rewind")
	}
	if c := used.rt.cfg; c.LocalDelay != local || c.RemoteDelay != remote {
		t.Errorf("delays after the rewind: %v and %v, want %v and %v", c.LocalDelay, c.RemoteDelay, local, remote)
	}
	if got, want := experiment(used), experiment(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("the rewound runtime recorded\n%+v\na fresh one\n%+v", got, want)
	}
	if got, want := draws(used.rt), draws(fresh.rt); !reflect.DeepEqual(got, want) {
		t.Errorf("a lossy link drew %v after the rewind, %v on a fresh runtime", got, want)
	}
}

// TestRebindKeepsUnchangedRegistrations: Rebind keeps a registration whose
// definition has the same Spec and Faults, swapping its App; rebuilds one
// whose fault list is another (even with equal contents); drops one whose
// nickname is gone; and refuses what Register refuses, a nickname twice or
// a definition without App.
func TestRebindKeepsUnchangedRegistrations(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	rt.AddHost("h1", vclock.ClockConfig{})
	sm := busSpec(t)
	faults := []faultexpr.Spec{{Name: "f", Expr: faultexpr.MustParse("(a:UP)"), Mode: faultexpr.Once}}
	app1, app2 := appFunc(func(*Handle) {}), appFunc(func(*Handle) {})
	a := NodeDef{Nickname: "a", Spec: sm, Faults: faults, App: app1}
	b := NodeDef{Nickname: "b", Spec: sm, App: app1}
	if err := rt.Rebind([]NodeDef{a, b}); err != nil {
		t.Fatal(err)
	}
	reg := rt.defs["a"]

	a.App = app2
	if err := rt.Rebind([]NodeDef{a, {Nickname: "c", Spec: sm, App: app1}}); err != nil {
		t.Fatal(err)
	}
	if rt.defs["a"] != reg || reflect.ValueOf(reg.App).Pointer() != reflect.ValueOf(app2).Pointer() {
		t.Error("an unchanged definition's registration was not kept with the new App")
	}
	if rt.defs["b"] != nil || rt.defs["c"] == nil {
		t.Errorf("registrations after the rebind: %v; want a and c", rt.defs)
	}

	a.Faults = slices.Clone(faults)
	if err := rt.Rebind([]NodeDef{a}); err != nil {
		t.Fatal(err)
	}
	if rt.defs["a"] == reg || len(rt.defs) != 1 {
		t.Error("a definition with another fault list kept its registration")
	}

	if err := rt.Rebind([]NodeDef{a, a}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("a nickname twice: err = %v, want a duplicate definition", err)
	}
	a.App = nil
	if err := rt.Rebind([]NodeDef{a}); err == nil {
		t.Error("a definition without App was accepted")
	}
}
