package loki_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	loki "repro"
	"repro/internal/campaign"
)

// quorumAccepted renders each point's accepted experiment indexes.
func quorumAccepted(t *testing.T, res *loki.SessionResult) map[string]string {
	t.Helper()
	if res == nil || res.Matrix == nil || len(res.Matrix.Points) != 24 {
		t.Fatalf("the quorum matrix has 24 points; got %+v", res)
	}
	sets := make(map[string]string, len(res.Matrix.Points))
	for _, pr := range res.Matrix.Points {
		var set strings.Builder
		for _, rec := range pr.Study.Records {
			if rec != nil && rec.Accepted {
				fmt.Fprintf(&set, "%d,", rec.Index)
			}
		}
		sets[pr.Point.Name()] = set.String()
	}
	return sets
}

// TestQuorumVerdictsThroughJournal pins the verdicts of a workload that
// rejects: examples/quorum's campaign file under virtual time accepts 80 of
// its 96 experiments — none at a quorum-flash point, whose injection can
// never be verified as in-state, and every one elsewhere. A resume of the
// finished journal serves the same accepted sets and executes nothing (an
// executed experiment would append its record line; the journal stays as
// it was), and Status counts the same verdicts from the journal.
func TestQuorumVerdictsThroughJournal(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("examples", "quorum", "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *loki.Session {
		t.Helper()
		cfg, err := loki.ParseCampaignFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := loki.Open(cfg, loki.WithVirtualTime(), loki.WithCheckpoint(dir, false))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	res, err := open().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	run := quorumAccepted(t, res)
	accepted := 0
	for point, set := range run {
		want := "0,1,2,3,"
		if strings.HasPrefix(point, "quorum-flash/") {
			want = ""
		}
		if set != want {
			t.Errorf("%s accepted %q, want %q", point, set, want)
		}
		accepted += strings.Count(set, ",")
	}
	if accepted != 80 {
		t.Errorf("accepted %d of 96 experiments, want 80", accepted)
	}

	journal := filepath.Join(dir, "checkpoint.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	s := open()
	res, err = s.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resumed := quorumAccepted(t, res)
	for point, set := range run {
		if resumed[point] != set {
			t.Errorf("%s: the resume accepted %q, the run %q", point, resumed[point], set)
		}
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the resume changed the journal (%v): it executed experiments", err)
	}

	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if expected, complete, acc := st.Totals(); expected != 96 || complete != 96 || acc != 80 || !st.FingerprintMatch || st.Torn || st.Appending {
		t.Errorf("status: %d expected, %d complete, %d accepted, match %v, torn %v, appending %v; want 96, 96, 80, a match, intact",
			expected, complete, acc, st.FingerprintMatch, st.Torn, st.Appending)
	}
	for _, p := range st.Points {
		if want := strings.Count(run[p.Point], ","); p.Complete != 4 || p.Accepted != want {
			t.Errorf("status of %s: %d complete, %d accepted; want 4, %d", p.Point, p.Complete, p.Accepted, want)
		}
	}

	if _, err := loki.GenerateReport(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Totals campaign.Tally `json:"totals"`
		Points []struct {
			Point    string         `json:"point"`
			Verdicts campaign.Tally `json:"verdicts"`
		} `json:"points"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if want := (campaign.Tally{Experiments: 96, Accepted: 80, Rejected: 16}); rep.Totals != want {
		t.Errorf("report totals %+v, want %+v", rep.Totals, want)
	}
	flash := 0
	for _, p := range rep.Points {
		if !strings.HasPrefix(p.Point, "quorum-flash/") {
			if p.Verdicts.Rejected != 0 {
				t.Errorf("report: %s rejects %d experiments; only quorum-flash points reject", p.Point, p.Verdicts.Rejected)
			}
			continue
		}
		flash += p.Verdicts.Rejected
	}
	if flash != 16 {
		t.Errorf("report: quorum-flash points reject %d experiments, want all 16", flash)
	}
}
