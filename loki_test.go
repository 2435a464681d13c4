package loki_test

import (
	"strings"
	"testing"
	"time"

	loki "repro"
)

const tinySpec = `
global_state_list
  BEGIN
  RUN
  DONE
  CRASH
  EXIT
end_global_state_list
event_list
  finish
end_event_list
state RUN notify peer
  finish DONE
state DONE notify peer
state CRASH notify peer
state EXIT notify peer
`

// TestPublicAPIEndToEnd drives the whole pipeline through the facade only:
// runtime phase, clock estimation, global timeline, checking, measures.
func TestPublicAPIEndToEnd(t *testing.T) {
	sm, err := loki.ParseStateMachine(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := loki.ParseFaultSpecs("f1 (worker:DONE) once\n")
	if err != nil {
		t.Fatal(err)
	}

	app := loki.Instrument(func(h *loki.Handle) {
		h.NotifyEvent("RUN")
		h.Sleep(10 * time.Millisecond)
		h.NotifyEvent("finish")
		h.Sleep(10 * time.Millisecond)
	}).On("f1", loki.NoteFault())

	peer := loki.Instrument(func(h *loki.Handle) {
		h.NotifyEvent("RUN")
		h.Sleep(25 * time.Millisecond)
	})

	c := &loki.Campaign{
		Name: "api-e2e",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 1e6, DriftPPM: 25}},
		},
		Studies: []*loki.Study{{
			Name: "s1",
			Nodes: []loki.NodeDef{
				{Nickname: "worker", Spec: sm, Faults: faults, App: app},
				{Nickname: "peer", Spec: sm, App: peer},
			},
			Placement: []loki.NodeEntry{
				{Nickname: "worker", Host: "h1"},
				{Nickname: "peer", Host: "h2"},
			},
			Experiments: 2,
			Timeout:     5 * time.Second,
		}},
		Sync: loki.SyncConfig{Messages: 8, Transit: 20 * time.Microsecond},
	}
	out := runCampaign(t, c)
	study := out.Study("s1")
	if study == nil || len(study.Records) != 2 {
		t.Fatalf("records: %+v", study)
	}
	accepted := study.AcceptedGlobals()
	if len(accepted) == 0 {
		for _, r := range study.Records {
			t.Logf("record %d: completed=%v accepted=%v", r.Index, r.Completed, r.Accepted)
			if r.Report != nil {
				for _, ic := range r.Report.Injections {
					t.Logf("  %s/%s: %v (%s)", ic.Machine, ic.Fault, ic.Correct, ic.Reason)
				}
			}
		}
		t.Fatal("no accepted experiments")
	}

	// Measure: how long did worker spend in DONE?
	pred, err := loki.ParsePredicate("(worker, DONE)")
	if err != nil {
		t.Fatal(err)
	}
	obs, err := loki.ParseObservation("total_duration(T, START_EXP, END_EXP)")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := loki.ParseSelector("default")
	if err != nil {
		t.Fatal(err)
	}
	m, err := loki.NewStudyMeasure("doneTime", loki.Triple{Select: sel, Pred: pred, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	values := m.ApplyAll(accepted)
	if len(values) != len(accepted) {
		t.Fatalf("values = %v", values)
	}
	for _, v := range values {
		if v < 5 { // worker sat in DONE ~10ms
			t.Errorf("DONE duration = %v ms, want >= 5", v)
		}
	}
	res := loki.SimpleSampling(values)
	if res.Mean() < 5 {
		t.Errorf("mean DONE duration = %v", res.Mean())
	}
}

func TestFacadeParsersAndFormats(t *testing.T) {
	if _, err := loki.ParseFaultExpr("((a:B) & ~(c:D))"); err != nil {
		t.Error(err)
	}
	entries, err := loki.ParseNodeFile("worker h1\npeer\n")
	if err != nil || len(entries) != 2 {
		t.Fatalf("node file: %v %v", entries, err)
	}
	sm, err := loki.ParseStateMachine(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	if !sm.HasGlobalState("RUN") {
		t.Error("spec lost states")
	}
	cov, err := loki.Coverage([]float64{1, 0.5}, []float64{1, 1})
	if err != nil || cov != 0.75 {
		t.Errorf("coverage = %v, %v", cov, err)
	}
}

func TestFacadeTimelineRoundTrip(t *testing.T) {
	rt := loki.NewRuntime(loki.RuntimeConfig{})
	defer rt.Shutdown()
	rt.AddHost("h1", loki.ClockConfig{})
	sm, _ := loki.ParseStateMachine(tinySpec)
	rt.Register(loki.NodeDef{
		Nickname: "worker", Spec: sm,
		App: loki.Instrument(func(h *loki.Handle) {
			h.NotifyEvent("RUN")
			h.NotifyEvent("finish")
		}),
	})
	rt.StartNode("worker", "h1")
	rt.Wait(5 * time.Second)
	text, err := loki.EncodeTimeline(rt.Store().Get("worker"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "local_timeline") {
		t.Errorf("encoded timeline:\n%s", text)
	}
	back, err := loki.DecodeTimeline(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Owner != "worker" || len(back.Entries) == 0 {
		t.Errorf("decoded = %+v", back)
	}
}
