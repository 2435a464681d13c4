package loki_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	loki "repro"
	"repro/app"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/obs"
)

// verdictDoc is a virtual-time campaign with one study per verdict: an
// election whose crash fault is provably in-state (accepted), the quorum
// flash whose injection can never be verified (rejected, as in
// examples/quorum), and an election whose clockstep fault makes the
// clock fit infeasible (discarded, as in TestClockStepDiscardsNotAborts).
// The aborted study is wired in Go (see TestVerdictSameEverywhere).
const verdictDoc = `{
  "name": "verdicts",
  "virtual_time": true,
  "workers": 1,
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 5000000, "drift_ppm": 80},
    {"name": "h3", "offset_ns": -2000000, "drift_ppm": -45},
    {"name": "h4", "offset_ns": 3500000, "drift_ppm": 120}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [
    {
      "name": "accepted", "app": "election",
      "nodes": [{"name": "black", "host": "h1"}, {"name": "green", "host": "h2"}, {"name": "yellow", "host": "h3"}],
      "faults": ["black bfault (black:ELECT) once"],
      "experiments": 2, "runfor": "80ms", "dormancy": "5ms", "timeout": "10s"
    },
    {
      "name": "rejected", "app": "quorum",
      "nodes": [{"name": "leader", "host": "h1"}, {"name": "c1", "host": "h2"}, {"name": "c2", "host": "h3"}, {"name": "c3", "host": "h4"}],
      "faults": ["c1 flash (leader:QUORUM_PH) once"],
      "experiments": 2, "runfor": "90ms", "timeout": "10s"
    },
    {
      "name": "discarded", "app": "election",
      "nodes": [{"name": "black", "host": "h1"}, {"name": "green", "host": "h2"}, {"name": "yellow", "host": "h3"}],
      "faults": ["black step (black:ELECT) once clockstep(h2,5ms)"],
      "experiments": 2, "runfor": "80ms", "timeout": "10s"
    }
  ]
}`

// TestVerdictSameEverywhere: every output that names an experiment's
// verdict names ExperimentRecord.Verdict's. One virtual-time campaign
// yields an accepted, a rejected, a discarded and an aborted study, with
// metrics, tracing, artifacts and a checkpoint on; for each record the
// trace's verdict event, the per-result counters, the auto-emitted
// report.json and GenerateReport's, Status, and whether verdict.txt exists
// agree with rec.Verdict(). With campaign.Tally counting Discarded as
// Rejected (a mutation tried in a copy of the tree when this test was
// written), it fails on the report's totals and per-study tallies.
func TestVerdictSameEverywhere(t *testing.T) {
	file, err := loki.ParseCampaignFile([]byte(verdictDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := config.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	// A runtime phase that outlives its timeout is aborted: the body
	// sleeps on the virtual clock past the study's 50ms.
	hang := func(loki.MatrixPoint, string) (app.App, error) {
		return app.New(func(h *app.Handle) {
			h.NotifyEvent("A")
			h.Sleep(time.Hour)
		}), nil
	}
	sm, err := app.ParseSpec("global_state_list\n  BEGIN\n  A\n  CRASH\n  EXIT\nend_global_state_list\nevent_list\n  e\nend_event_list\nstate A\n  e A\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Studies = append(cfg.Studies, &loki.Study{
		Name:        "aborted",
		Nodes:       []loki.NodeDef{{Nickname: "n", Spec: sm}},
		NewApp:      hang,
		Placement:   []loki.NodeEntry{{Nickname: "n", Host: "h1"}},
		Experiments: 2,
		Timeout:     50 * time.Millisecond,
	})

	dir := t.TempDir()
	s, err := loki.Open(cfg, loki.WithArtifacts(dir), loki.WithMetrics(), loki.WithTracing(""), loki.WithCheckpoint(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var totals campaign.Tally
	perStudy := map[string]campaign.Tally{}
	for _, sr := range res.Campaign.Studies {
		var tally campaign.Tally
		for _, rec := range sr.Records {
			v := rec.Verdict()
			if v.String() != sr.Name {
				t.Errorf("%s/%d is %v; the fixture wants every record of study %s %s", sr.Name, rec.Index, v, sr.Name, sr.Name)
			}
			tally.Experiments++
			switch v {
			case campaign.Aborted:
				tally.Aborted++
			case campaign.Discarded:
				tally.Discarded++
			case campaign.Rejected:
				tally.Rejected++
			case campaign.Accepted:
				tally.Accepted++
			}
			if rec.ClockStepSuspected {
				tally.ClockStep++
			}

			// The trace's verdict event.
			trace, err := os.ReadFile(filepath.Join(dir, "traces", sr.Name, fmt.Sprintf("exp%03d.trace.jsonl", rec.Index)))
			if err != nil {
				t.Fatal(err)
			}
			var named []string
			for _, line := range bytes.Split(trace, []byte("\n")) {
				var l struct {
					Event *obs.TracePoint `json:"event"`
				}
				if json.Unmarshal(line, &l) == nil && l.Event != nil && l.Event.Cat == "verdict" {
					named = append(named, l.Event.Name)
				}
			}
			if len(named) != 1 || named[0] != v.String() {
				t.Errorf("%s/%d: trace verdict events %q; want one, %q", sr.Name, rec.Index, named, v)
			}

			// verdict.txt: written for analysed records only, naming the verdict.
			b, err := os.ReadFile(filepath.Join(dir, sr.Name, fmt.Sprintf("exp%03d", rec.Index), "verdict.txt"))
			analysed := v == campaign.Rejected || v == campaign.Accepted
			if analysed && string(b) != v.String()+"\n" || !analysed && !os.IsNotExist(err) {
				t.Errorf("%s/%d (%v): verdict.txt %q (%v)", sr.Name, rec.Index, v, b, err)
			}
		}
		perStudy[sr.Name] = tally
		totals.Experiments += tally.Experiments
		totals.Accepted += tally.Accepted
		totals.Rejected += tally.Rejected
		totals.Discarded += tally.Discarded
		totals.Aborted += tally.Aborted
		totals.ClockStep += tally.ClockStep
	}
	if len(perStudy) != 4 {
		t.Fatalf("studies %v; want four", perStudy)
	}

	// The per-result counters.
	snap := s.Metrics().Snapshot()
	for v, want := range map[campaign.Verdict]int{
		campaign.Aborted: totals.Aborted, campaign.Discarded: totals.Discarded,
		campaign.Rejected: totals.Rejected, campaign.Accepted: totals.Accepted,
	} {
		series := fmt.Sprintf(`loki_experiments_total{result=%q}`, v)
		if got := snap.Counters[series]; got != uint64(want) {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}

	// The auto-emitted report and GenerateReport's, byte for byte, and
	// their tallies.
	auto, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loki.GenerateReport(dir); err != nil {
		t.Fatal(err)
	}
	regenerated, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(auto, regenerated) {
		t.Errorf("auto-emitted report.json differs from GenerateReport's:\n%s\n---\n%s", auto, regenerated)
	}
	var rep struct {
		Totals campaign.Tally `json:"totals"`
		Points []struct {
			Point    string         `json:"point"`
			Verdicts campaign.Tally `json:"verdicts"`
		} `json:"points"`
	}
	if err := json.Unmarshal(regenerated, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Totals != totals {
		t.Errorf("report totals %+v; the records' verdicts %+v", rep.Totals, totals)
	}
	for _, p := range rep.Points {
		if p.Verdicts != perStudy[p.Point] {
			t.Errorf("report: %s %+v; the records' verdicts %+v", p.Point, p.Verdicts, perStudy[p.Point])
		}
	}
	if len(rep.Points) != len(perStudy) {
		t.Errorf("report points %+v; want %d", rep.Points, len(perStudy))
	}

	// Status.
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Points {
		want := perStudy[p.Point]
		if p.Complete != want.Experiments || p.Accepted != want.Accepted {
			t.Errorf("status of %s: %d complete, %d accepted; the records' verdicts %+v", p.Point, p.Complete, p.Accepted, want)
		}
	}
	if _, complete, accepted := st.Totals(); complete != totals.Experiments || accepted != totals.Accepted {
		t.Errorf("status totals %d complete, %d accepted; the records' verdicts %+v", complete, accepted, totals)
	}
}
