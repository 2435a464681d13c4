package campaign

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/vclock"
)

// stepSpec is a deterministic three-step state machine: the application
// walks S1 -> S2 -> S3 and exits, with no timing sensitivity, so every
// experiment produces the same timeline structure however it is scheduled.
func stepSpec(t testing.TB) *spec.StateMachine {
	t.Helper()
	sm, err := spec.ParseStateMachine(`
global_state_list
  BEGIN
  S1
  S2
  S3
  CRASH
  EXIT
end_global_state_list
event_list
  GO
  GO2
end_event_list
state S1
  GO S2
state S2
  GO2 S3
state S3
state CRASH
state EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// stepCampaign builds a deterministic campaign: every node injects a
// NoteFault on its own S2 (self-atoms are provable through the same-clock
// exactness refinement), hosts carry seeded jittered clocks, and all
// workers share one seeded time source.
func stepCampaign(t testing.TB, experiments, workers int) *Campaign {
	t.Helper()
	nicks := []string{"alpha", "beta", "gamma"}
	var nodes []core.NodeDef
	var placement []spec.NodeEntry
	for i, nick := range nicks {
		nodes = append(nodes, core.NodeDef{
			Nickname: nick,
			Spec:     stepSpec(t),
			Faults: []faultexpr.Spec{{
				Name: nick + "fault",
				Expr: faultexpr.MustParse("(" + nick + ":S2)"),
				Mode: faultexpr.Once,
			}},
		})
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: fmt.Sprintf("h%d", i+1)})
	}
	return &Campaign{
		Name: "steps",
		Hosts: []HostDef{
			{Name: "h1", Clock: vclock.ClockConfig{Jitter: 200, Seed: 1}},
			{Name: "h2", Clock: vclock.ClockConfig{Offset: 4e6, DriftPPM: 60, Jitter: 200, Seed: 2}},
			{Name: "h3", Clock: vclock.ClockConfig{Offset: -2e6, DriftPPM: -35, Jitter: 200, Seed: 3}},
		},
		Workers: workers,
		Studies: []*Study{{
			Name:        "steps",
			Nodes:       nodes,
			Placement:   placement,
			Experiments: experiments,
			Timeout:     5 * time.Second,
			NewApp:      stepApp,
		}},
		Sync: SyncConfig{Messages: 6, Transit: 10 * time.Microsecond, Spacing: 20 * time.Microsecond},
	}
}

// stepApp is stepCampaign's application: it walks S1 -> S2 -> S3, noting
// its own S2 fault.
func stepApp(_ Point, nick string) (core.App, error) {
	return probe.NewInstrumented(func(h *core.Handle) {
		h.NotifyEvent("S1")
		h.NotifyEvent("GO")
		h.NotifyEvent("GO2")
	}).On(nick+"fault", probe.NoteFault()), nil
}

// TestParallelDeterminism runs the same deterministic campaign with one
// worker and with eight and requires identical per-study record counts,
// record ordering (index i at position i), acceptance decisions, and
// outcomes. Run under -race in CI.
func TestParallelDeterminism(t *testing.T) {
	const experiments = 8
	run := func(workers int) *StudyResult {
		res, err := Run(context.Background(), stepCampaign(t, experiments, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sr := res.Study("steps")
		if sr == nil {
			t.Fatalf("workers=%d: study missing", workers)
		}
		return sr
	}
	seq := run(1)
	par := run(8)

	if len(seq.Records) != experiments || len(par.Records) != experiments {
		t.Fatalf("record counts: sequential %d, parallel %d, want %d",
			len(seq.Records), len(par.Records), experiments)
	}
	for i := 0; i < experiments; i++ {
		s, p := seq.Records[i], par.Records[i]
		if s == nil || p == nil {
			t.Fatalf("experiment %d: nil record (seq=%v par=%v)", i, s != nil, p != nil)
		}
		if s.Index != i || p.Index != i {
			t.Errorf("experiment %d: index landed at seq=%d par=%d", i, s.Index, p.Index)
		}
		if !s.Completed || !p.Completed {
			t.Errorf("experiment %d: completed seq=%v par=%v, want both", i, s.Completed, p.Completed)
		}
		if s.Accepted != p.Accepted {
			t.Errorf("experiment %d: acceptance differs: seq=%v par=%v", i, s.Accepted, p.Accepted)
		}
		for _, nick := range []string{"alpha", "beta", "gamma"} {
			if s.Outcomes[nick] != p.Outcomes[nick] {
				t.Errorf("experiment %d: outcome[%s] seq=%q par=%q", i, nick, s.Outcomes[nick], p.Outcomes[nick])
			}
		}
	}
	// The deterministic walk with a self-atom fault must be provably
	// correct: acceptance is not merely equal but total.
	if got := seq.AcceptanceRate(); got != 1 {
		for _, r := range seq.Records {
			if r.Report != nil {
				for _, ic := range r.Report.Injections {
					t.Logf("exp %d: %s/%s correct=%v: %s", r.Index, ic.Machine, ic.Fault, ic.Correct, ic.Reason)
				}
			}
		}
		t.Errorf("sequential acceptance rate = %v, want 1", got)
	}
	if len(seq.AcceptedGlobals()) != len(par.AcceptedGlobals()) {
		t.Errorf("accepted sets differ: seq=%d par=%d", len(seq.AcceptedGlobals()), len(par.AcceptedGlobals()))
	}
}

// TestParallelMoreWorkersThanExperiments: the pool must clamp and still
// fill every slot.
func TestParallelMoreWorkersThanExperiments(t *testing.T) {
	res, err := Run(context.Background(), stepCampaign(t, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Study("steps")
	if len(sr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(sr.Records))
	}
	for i, r := range sr.Records {
		if r == nil || r.Index != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestNilStudyResultSafe: asking for a missing study must yield a usable
// zero result, not a panic.
func TestNilStudyResultSafe(t *testing.T) {
	r := &Result{Name: "empty"}
	missing := r.Study("nope")
	if missing != nil {
		t.Fatalf("missing study = %+v, want nil", missing)
	}
	if g := missing.AcceptedGlobals(); len(g) != 0 {
		t.Errorf("AcceptedGlobals on nil = %v", g)
	}
	if rate := missing.AcceptanceRate(); rate != 0 {
		t.Errorf("AcceptanceRate on nil = %v", rate)
	}
}
