package election

import (
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

var peers = []string{"black", "green", "yellow"}

// newElectionRuntime builds the three-host testbed on a virtual clock,
// driven by the test goroutine until cleanup. Nodes the test starts are
// then all live before any of them runs: on the wall clock a first-round
// vote broadcast before a peer started never reaches it, and two
// processes can each see themselves win.
func newElectionRuntime(t *testing.T) (*core.Runtime, *clock.Virtual) {
	t.Helper()
	v := clock.NewVirtual()
	v.Drive()
	t.Cleanup(v.Release)
	rt := core.New(core.Config{Clock: v, Logf: t.Logf})
	t.Cleanup(rt.Shutdown)
	rt.AddHost("h1", vclock.ClockConfig{})
	rt.AddHost("h2", vclock.ClockConfig{Offset: 2e6, DriftPPM: 60})
	rt.AddHost("h3", vclock.ClockConfig{Offset: -1e6, DriftPPM: -30})
	return rt, v
}

func registerAll(t *testing.T, rt *core.Runtime, cfg Config, faults map[string][]faultexpr.Spec, instrument func(nick string, in *probe.Instrumented)) {
	t.Helper()
	for i, nick := range peers {
		cfg := cfg
		cfg.Peers = peers
		cfg.Seed = int64(i + 1)
		in := New(cfg)
		if instrument != nil {
			instrument(nick, in)
		}
		err := rt.Register(core.NodeDef{
			Nickname: nick,
			Spec:     SpecFor(nick, peers),
			Faults:   faults[nick],
			App:      in,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func startAll(t *testing.T, rt *core.Runtime) {
	t.Helper()
	hosts := []string{"h1", "h2", "h3"}
	for i, nick := range peers {
		if _, err := rt.StartNode(nick, hosts[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// statesOf extracts the sequence of states a machine passed through.
func statesOf(tl *timeline.Local) []string {
	var out []string
	for _, e := range tl.Entries {
		if e.Kind == timeline.StateChange {
			out = append(out, e.NewState)
		}
	}
	return out
}

func leadersIn(rt *core.Runtime) []string {
	var leaders []string
	for _, nick := range peers {
		tl := rt.SnapshotTimeline(nick)
		if tl == nil {
			continue
		}
		for _, s := range statesOf(tl) {
			if s == StLead {
				leaders = append(leaders, nick)
				break
			}
		}
	}
	return leaders
}

func TestElectionProducesOneLeader(t *testing.T) {
	rt, _ := newElectionRuntime(t)
	registerAll(t, rt, Config{RunFor: 120 * time.Millisecond}, nil, nil)
	startAll(t, rt)
	if !rt.Wait(10 * time.Second) {
		t.Fatal("experiment timed out")
	}
	leaders := leadersIn(rt)
	if len(leaders) != 1 {
		t.Fatalf("leaders = %v, want exactly one", leaders)
	}
	// All three must have gone BEGIN->INIT->ELECT and ended in EXIT.
	for _, nick := range peers {
		states := statesOf(rt.SnapshotTimeline(nick))
		if len(states) < 3 || states[0] != StInit || states[1] != StElect {
			t.Errorf("%s states = %v", nick, states)
		}
		if states[len(states)-1] != spec.StateExit {
			t.Errorf("%s did not exit cleanly: %v", nick, states)
		}
	}
}

func TestLeaderCrashTriggersReElection(t *testing.T) {
	rt, _ := newElectionRuntime(t)
	// §5.4's first evaluation: every process carries an always-mode crash
	// fault on its own LEAD state; whoever leads first gets killed.
	faults := map[string][]faultexpr.Spec{}
	for _, nick := range peers {
		faults[nick] = []faultexpr.Spec{{
			Name: string(nick[0]) + "fault1",
			Expr: faultexpr.MustParse("(" + nick + ":LEAD)"),
			Mode: faultexpr.Once, // once: otherwise the second leader dies too
		}}
	}
	registerAll(t, rt, Config{RunFor: 250 * time.Millisecond}, faults,
		func(nick string, in *probe.Instrumented) {
			in.On(string(nick[0])+"fault1", probe.CrashFault())
		})
	startAll(t, rt)
	if !rt.Wait(10 * time.Second) {
		t.Fatal("experiment timed out")
	}

	// Every process that reached LEAD must have been crashed by its fault,
	// and the crash cascade proves re-election: at least two distinct
	// machines led during the run.
	var crashed, led []string
	for _, nick := range peers {
		states := statesOf(rt.SnapshotTimeline(nick))
		for _, s := range states {
			if s == spec.StateCrash {
				crashed = append(crashed, nick)
				break
			}
		}
		for _, s := range states {
			if s == StLead {
				led = append(led, nick)
				break
			}
		}
	}
	if len(led) < 2 {
		t.Fatalf("led = %v; re-election never happened", led)
	}
	if len(crashed) != len(led) {
		t.Fatalf("led = %v but crashed = %v; a leader survived its crash fault", led, crashed)
	}
	// Each crashed machine's timeline must record exactly one injection.
	for _, nick := range crashed {
		if inj := slices.DeleteFunc(slices.Clone(rt.SnapshotTimeline(nick).Entries), func(e timeline.Entry) bool { return e.Kind != timeline.FaultInjection }); len(inj) != 1 {
			t.Fatalf("injections on %s = %+v", nick, inj)
		}
	}
	// Survivors saw LEADER_CRASH: their timelines show FOLLOW -> ELECT.
	reElected := false
	for _, nick := range peers {
		if nick == crashed[0] {
			continue
		}
		states := statesOf(rt.SnapshotTimeline(nick))
		for i := 1; i < len(states); i++ {
			if states[i-1] == StFollow && states[i] == StElect {
				reElected = true
			}
		}
	}
	if !reElected {
		t.Error("no follower re-entered ELECT after the leader crash")
	}
}

func TestCrashedProcessRestartsAsFollower(t *testing.T) {
	rt, v := newElectionRuntime(t)
	faults := map[string][]faultexpr.Spec{}
	for _, nick := range peers {
		faults[nick] = []faultexpr.Spec{{
			Name: "crashLead",
			Expr: faultexpr.MustParse("(" + nick + ":LEAD)"),
			Mode: faultexpr.Once,
		}}
	}
	registerAll(t, rt, Config{RunFor: 300 * time.Millisecond}, faults,
		func(nick string, in *probe.Instrumented) {
			in.On("crashLead", probe.CrashFault())
		})
	startAll(t, rt)

	// Supervise: when a node crashes, restart it once on a different host.
	// The test goroutine drives the clock, so its polling sleep is where
	// simulated time moves.
	deadline := v.Now().Add(5 * time.Second)
	restarted := ""
	for restarted == "" && v.Now().Before(deadline) {
		for _, nick := range peers {
			if rt.Node(nick) != nil {
				continue
			}
			tl := rt.SnapshotTimeline(nick)
			if tl == nil {
				continue
			}
			if last, ok := tl.LastState(); ok && last == spec.StateCrash {
				if _, err := rt.StartNode(nick, "h1"); err == nil {
					restarted = nick
				}
			}
		}
		v.Sleep(time.Millisecond)
	}
	if restarted == "" {
		t.Fatal("no crash observed to restart")
	}
	if !rt.Wait(10 * time.Second) {
		t.Fatal("experiment timed out")
	}

	states := statesOf(rt.SnapshotTimeline(restarted))
	// The combined timeline must show ... CRASH, RESTART_SM, FOLLOW ...
	idxCrash, idxRestart, idxFollow := -1, -1, -1
	for i, s := range states {
		switch s {
		case spec.StateCrash:
			if idxCrash < 0 {
				idxCrash = i
			}
		case StRestartSM:
			idxRestart = i
		case StFollow:
			if idxRestart >= 0 && idxFollow < 0 && i > idxRestart {
				idxFollow = i
			}
		}
	}
	if idxCrash < 0 || idxRestart < idxCrash || idxFollow < idxRestart {
		t.Fatalf("restart sequence wrong: %v", states)
	}
}

func TestSpecForMatchesThesisShape(t *testing.T) {
	m := SpecFor("black", peers)
	if len(m.GlobalStates) != 8 {
		t.Errorf("global states = %v", m.GlobalStates)
	}
	if next, ok := m.Next(StElect, EvLeader); !ok || next != StLead {
		t.Errorf("ELECT+LEADER -> %q, %v", next, ok)
	}
	if next, ok := m.Next(StFollow, EvLeaderCrash); !ok || next != StElect {
		t.Errorf("FOLLOW+LEADER_CRASH -> %q, %v", next, ok)
	}
	if next, ok := m.Next(spec.StateBegin, EvRestart); !ok || next != StRestartSM {
		t.Errorf("BEGIN+RESTART -> %q, %v", next, ok)
	}
	nl := m.NotifyList(spec.StateCrash)
	if len(nl) != 2 || nl[0] != "green" || nl[1] != "yellow" {
		t.Errorf("CRASH notify = %v", nl)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}
