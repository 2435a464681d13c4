package replica

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

var peers = []string{"r0", "r1", "r2"}

func newRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	for _, h := range []string{"h1", "h2", "h3"} {
		rt.AddHost(h, vclock.ClockConfig{})
	}
	return rt
}

type replicaSetup struct {
	regions map[string]*probe.MemoryRegion
}

func registerReplicas(t *testing.T, rt *core.Runtime, runFor time.Duration,
	faults map[string][]faultexpr.Spec,
	instrument func(nick string, in *probe.Instrumented, region *probe.MemoryRegion)) *replicaSetup {
	t.Helper()
	setup := &replicaSetup{regions: make(map[string]*probe.MemoryRegion)}
	for _, nick := range peers {
		region := probe.NewMemoryRegion(make([]byte, 8))
		setup.regions[nick] = region
		in := New(Config{Peers: peers, RunFor: runFor, Region: region})
		if instrument != nil {
			instrument(nick, in, region)
		}
		if err := rt.Register(core.NodeDef{
			Nickname: nick,
			Spec:     SpecFor(nick, peers),
			Faults:   faults[nick],
			App:      in,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return setup
}

func startAll(t *testing.T, rt *core.Runtime) {
	t.Helper()
	for i, nick := range peers {
		if _, err := rt.StartNode(nick, []string{"h1", "h2", "h3"}[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func statesOf(tl *timeline.Local) []string {
	var out []string
	for _, e := range tl.Entries {
		if e.Kind == timeline.StateChange {
			out = append(out, e.NewState)
		}
	}
	return out
}

func TestReplicationProgress(t *testing.T) {
	rt := newRuntime(t)
	setup := registerReplicas(t, rt, 100*time.Millisecond, nil, nil)
	startAll(t, rt)
	if !rt.Wait(10 * time.Second) {
		t.Fatal("timeout")
	}
	// r0 (priority 0) was primary; its counter advanced and backups
	// replicated to within a small gap.
	primary := regionValue(setup.regions["r0"])
	if primary < 10 {
		t.Fatalf("primary applied only %d updates", primary)
	}
	for _, nick := range []string{"r1", "r2"} {
		backup := regionValue(setup.regions[nick])
		if backup == 0 {
			t.Errorf("%s never applied an update", nick)
		}
		if backup > primary {
			t.Errorf("%s ahead of primary: %d > %d", nick, backup, primary)
		}
		if primary-backup > 5 {
			t.Errorf("%s lagging: %d vs %d", nick, backup, primary)
		}
	}
	// Roles: r0 PRIMARY, others BACKUP.
	if states := statesOf(rt.SnapshotTimeline("r0")); states[1] != StPrimary {
		t.Errorf("r0 states = %v", states)
	}
	for _, nick := range []string{"r1", "r2"} {
		if states := statesOf(rt.SnapshotTimeline(nick)); states[1] != StBackup {
			t.Errorf("%s states = %v", nick, states)
		}
	}
}

func TestFailoverOnPrimaryCrash(t *testing.T) {
	rt := newRuntime(t)
	faults := map[string][]faultexpr.Spec{
		"r0": {{
			Name: "killPrimary",
			Expr: faultexpr.MustParse("(r0:PRIMARY)"),
			Mode: faultexpr.Once,
		}},
	}
	registerReplicas(t, rt, 200*time.Millisecond, faults,
		func(nick string, in *probe.Instrumented, _ *probe.MemoryRegion) {
			if nick == "r0" {
				// Let the primary do some work before dying.
				in.On("killPrimary", probe.DelayedCrashFault(20*time.Millisecond, 0, 1))
			}
		})
	startAll(t, rt)
	if !rt.Wait(10 * time.Second) {
		t.Fatal("timeout")
	}
	if last, _ := rt.SnapshotTimeline("r0").LastState(); last != spec.StateCrash {
		t.Fatalf("r0 last state = %q, want CRASH", last)
	}
	// r1, the next in priority, must have promoted.
	promoted := false
	for _, s := range statesOf(rt.SnapshotTimeline("r1")) {
		if s == StPrimary {
			promoted = true
		}
	}
	if !promoted {
		t.Fatalf("r1 never promoted: %v", statesOf(rt.SnapshotTimeline("r1")))
	}
}

func TestMemoryFaultDetectedAsFailStop(t *testing.T) {
	rt := newRuntime(t)
	faults := map[string][]faultexpr.Spec{
		"r0": {{
			Name: "bitflip",
			Expr: faultexpr.MustParse("(r0:PRIMARY)"),
			Mode: faultexpr.Once,
		}},
	}
	registerReplicas(t, rt, 150*time.Millisecond, faults,
		func(nick string, in *probe.Instrumented, region *probe.MemoryRegion) {
			if nick == "r0" {
				in.On("bitflip", probe.MemoryFault(region, 7))
			}
		})
	startAll(t, rt)
	if !rt.Wait(10 * time.Second) {
		t.Fatal("timeout")
	}
	// The corruption may be masked if the primary's next tick overwrites
	// the region before checking; the check-then-write order makes
	// detection the common case. Accept either detection (EXIT via ERROR)
	// or a masked flip, but require the injection to be recorded.
	tl := rt.SnapshotTimeline("r0")
	if inj := slices.DeleteFunc(slices.Clone(tl.Entries), func(e timeline.Entry) bool { return e.Kind != timeline.FaultInjection }); len(inj) != 1 {
		t.Fatalf("injections = %+v", inj)
	}
	states := statesOf(tl)
	last := states[len(states)-1]
	if last != spec.StateExit {
		t.Errorf("r0 final state = %q (states %v)", last, states)
	}
}

func TestRestartedReplicaSyncs(t *testing.T) {
	rt := newRuntime(t)
	faults := map[string][]faultexpr.Spec{
		"r2": {{
			Name: "killBackup",
			Expr: faultexpr.MustParse("(r2:BACKUP)"),
			Mode: faultexpr.Once,
		}},
	}
	setup := registerReplicas(t, rt, 250*time.Millisecond, faults,
		func(nick string, in *probe.Instrumented, _ *probe.MemoryRegion) {
			if nick == "r2" {
				in.On("killBackup", probe.DelayedCrashFault(15*time.Millisecond, 0, 2))
			}
		})
	startAll(t, rt)

	// Supervisor: restart r2 on another host once it crashes.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tl := rt.SnapshotTimeline("r2"); tl != nil && rt.Node("r2") == nil {
			if last, ok := tl.LastState(); ok && last == spec.StateCrash {
				if _, err := rt.StartNode("r2", "h1"); err == nil {
					break
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !rt.Wait(10 * time.Second) {
		t.Fatal("timeout")
	}

	states := statesOf(rt.SnapshotTimeline("r2"))
	// Must contain CRASH then RESTART_SM then BACKUP.
	seq := []string{spec.StateCrash, StRestartSM, StBackup}
	idx := 0
	for _, s := range states {
		if idx < len(seq) && s == seq[idx] {
			idx++
		}
	}
	if idx != len(seq) {
		t.Fatalf("r2 states = %v, want subsequence %v", states, seq)
	}
	// After syncing, r2's value should be well past zero.
	if v := regionValue(setup.regions["r2"]); v == 0 {
		t.Error("restarted replica never caught up")
	}
}

func TestSpecForShape(t *testing.T) {
	m := SpecFor("r0", peers)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if next, ok := m.Next(StBackup, EvPromote); !ok || next != StPrimary {
		t.Errorf("BACKUP+PROMOTE -> %q, %v", next, ok)
	}
	if next, ok := m.Next(spec.StateBegin, EvRestart); !ok || next != StRestartSM {
		t.Errorf("BEGIN+RESTART -> %q, %v", next, ok)
	}
	if nl := m.NotifyList(StPrimary); len(nl) != 2 {
		t.Errorf("PRIMARY notify = %v", nl)
	}
}
