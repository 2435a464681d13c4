package loki_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	loki "repro"
)

// TestReportAutoEmitAndRegenerate: a run with artifacts enabled ends by
// writing report.html/report.json over its own journal, metrics, and
// traces; GenerateReport then re-renders byte-identical output from the
// artifacts alone — the `lokirun -report` path, no re-run involved.
func TestReportAutoEmitAndRegenerate(t *testing.T) {
	dir := t.TempDir()
	runChaosObserved(t,
		loki.WithArtifacts(dir), loki.WithMetrics(),
		loki.WithTracing(""), loki.WithCheckpoint(dir, false))

	jsonPath := filepath.Join(dir, "report.json")
	first, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("report.json not auto-emitted: %v", err)
	}
	htmlFirst, err := os.ReadFile(filepath.Join(dir, "report.html"))
	if err != nil {
		t.Fatalf("report.html not auto-emitted: %v", err)
	}

	var data struct {
		Campaign string `json:"campaign"`
		Sources  struct {
			Journal bool `json:"journal"`
			Metrics bool `json:"metrics"`
			Traces  int  `json:"traces"`
		} `json:"sources"`
		Totals struct {
			Experiments int `json:"experiments"`
		} `json:"totals"`
		Points []struct {
			Point string `json:"point"`
		} `json:"points"`
		Phases []struct {
			Phase string `json:"phase"`
			Count int    `json:"count"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(first, &data); err != nil {
		t.Fatal(err)
	}
	if !data.Sources.Journal || !data.Sources.Metrics || data.Sources.Traces == 0 {
		t.Errorf("report sources incomplete: %+v", data.Sources)
	}
	if data.Campaign != "chaos-bench" {
		t.Errorf("campaign = %q", data.Campaign)
	}
	// 2 matrix points x 2 experiments.
	if data.Totals.Experiments != 4 {
		t.Errorf("total experiments = %d, want 4", data.Totals.Experiments)
	}
	if len(data.Points) != 2 {
		t.Errorf("points = %+v, want 2", data.Points)
	}
	phases := map[string]bool{}
	for _, p := range data.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"reset", "clock-sync-pre", "experiment"} {
		if !phases[want] {
			t.Errorf("phase stats missing %q (have %v)", want, data.Phases)
		}
	}

	html := string(htmlFirst)
	for _, w := range []string{"<!doctype html", "Verdicts", "Phase latencies", "chaos-bench"} {
		if !strings.Contains(html, w) {
			t.Errorf("report.html missing %q", w)
		}
	}

	// Standalone regeneration over unchanged artifacts is byte-identical
	// — the report is a pure function of its inputs.
	htmlPath, err := loki.GenerateReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if htmlPath != filepath.Join(dir, "report.html") {
		t.Errorf("GenerateReport path = %q", htmlPath)
	}
	second, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("regenerated report.json differs from auto-emitted one")
	}
	htmlSecond, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(htmlFirst) != string(htmlSecond) {
		t.Error("regenerated report.html differs from auto-emitted one")
	}
}

// TestReportNoArtifacts: GenerateReport over an empty directory fails
// loudly; a bare WithArtifacts run (which implies a checkpoint journal)
// still gets a journal-only report.
func TestReportNoArtifacts(t *testing.T) {
	if _, err := loki.GenerateReport(t.TempDir()); err == nil {
		t.Error("GenerateReport over empty dir succeeded")
	}
	dir := t.TempDir()
	runChaosObserved(t, loki.WithArtifacts(dir))
	b, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatalf("journal-only report not emitted: %v", err)
	}
	var data struct {
		Sources struct {
			Journal bool `json:"journal"`
			Metrics bool `json:"metrics"`
			Traces  int  `json:"traces"`
		} `json:"sources"`
	}
	if err := json.Unmarshal(b, &data); err != nil {
		t.Fatal(err)
	}
	if !data.Sources.Journal || data.Sources.Metrics || data.Sources.Traces != 0 {
		t.Errorf("journal-only run sources = %+v", data.Sources)
	}
}

// TestReportSameFromEverySource: a session builds its report's verdict
// section from the records its run holds, plus the journaled records the
// run did not cover; GenerateReport reads them from the journal on disk.
// Over one directory, the first run, a second run (Resume, or RunOne over
// the whole journal) and GenerateReport must write byte-identical
// report.json and report.html. The "shrunk" cases resume over a journal
// holding keys the second run does not produce — a matrix without one of
// its seeds, a one-experiment run over a four-experiment journal — and
// must still count them: with the session's journal-only records dropped
// (a mutation tried in a copy of the tree when this test was written),
// both fail on report.json's totals.
func TestReportSameFromEverySource(t *testing.T) {
	matrix := func(seeds ...int64) loki.Option {
		m := chaosMatrix(t, 2)
		m.Seeds = seeds
		return loki.WithMatrix(m)
	}
	studies, err := loki.ParseCampaignFile([]byte(goldenElectionDoc))
	if err != nil {
		t.Fatal(err)
	}
	second := studies.Studies[0]
	second.Name = "second"
	second.Experiments = 2
	studies.Studies = append(studies.Studies, second)
	resume := func(s *loki.Session) error { _, err := s.Resume(context.Background()); return err }
	for _, tc := range []struct {
		name         string
		spec         any
		first, again []loki.Option
		run          func(s *loki.Session) error
		experiments  int
	}{
		{"matrix", chaosCampaign(1), []loki.Option{matrix(1, 2)}, []loki.Option{matrix(1, 2)}, resume, 4},
		{"studies", studies, nil, nil, resume, 6},
		{"shrunk matrix", chaosCampaign(1), []loki.Option{matrix(1, 2)}, []loki.Option{matrix(2)}, resume, 4},
		{"shrunk run-one", studies, nil, nil, func(s *loki.Session) error {
			_, err := s.RunOne(context.Background())
			return err
		}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(opts []loki.Option, resume bool) *loki.Session {
				t.Helper()
				// Resume resumes by itself; RunOne needs the journal opened
				// for resume to serve its record from it.
				opts = append(opts, loki.WithVirtualTime(), loki.WithArtifacts(dir), loki.WithCheckpoint(dir, resume))
				s, err := loki.Open(tc.spec, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			report := func() (string, string) {
				t.Helper()
				js, err := os.ReadFile(filepath.Join(dir, "report.json"))
				if err != nil {
					t.Fatal(err)
				}
				html, err := os.ReadFile(filepath.Join(dir, "report.html"))
				if err != nil {
					t.Fatal(err)
				}
				return string(js), string(html)
			}
			if _, err := open(tc.first, false).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			wantJSON, wantHTML := report()
			var data struct {
				Sources struct{ Journal bool }    `json:"sources"`
				Totals  struct{ Experiments int } `json:"totals"`
			}
			if err := json.Unmarshal([]byte(wantJSON), &data); err != nil {
				t.Fatal(err)
			}
			if !data.Sources.Journal || data.Totals.Experiments != tc.experiments {
				t.Fatalf("first run's report: journal %v, %d experiments; want true, %d", data.Sources.Journal, data.Totals.Experiments, tc.experiments)
			}
			if err := tc.run(open(tc.again, true)); err != nil {
				t.Fatal(err)
			}
			for _, source := range []string{"second run", "GenerateReport"} {
				if source == "GenerateReport" {
					if _, err := loki.GenerateReport(dir); err != nil {
						t.Fatal(err)
					}
				}
				js, html := report()
				if js != wantJSON {
					t.Errorf("%s: report.json differs from the first run's:\n%s\nwant:\n%s", source, js, wantJSON)
				}
				if html != wantHTML {
					t.Errorf("%s: report.html differs from the first run's", source)
				}
			}
		})
	}
}
