package loki

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestArtifactPassAllocBudget holds the allocations per record of a
// resume's artifact pass (writeArtifactJobs) over an intact tree, where
// every file already holds its bytes: the golden election record under
// distinct indices, long minus short pass so the goroutines' own costs
// cancel. Measured at 7.0 when the budget was set: the experiment
// directory's path, three path joins and one C string per file opened (8.0
// when the directory's name came from fmt.Sprintf and a fourth join; 16.0
// when each file was opened through os.File and rewritten after a MkdirAll
// per record). The slack of a -race build is for the pools -race drops at
// random.
func TestArtifactPassAllocBudget(t *testing.T) {
	budget := 8.0
	if raceBuild {
		budget = 10
	}
	b, err := os.ReadFile("testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Record struct{ Experiment *ExperimentRecord }
	}
	if err := json.Unmarshal([]byte(strings.SplitAfter(string(b), "\n")[1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Record.Experiment == nil || line.Record.Experiment.Global == nil {
		t.Fatal("the golden record has no global timeline")
	}
	const short, long = 16, 144
	dir := t.TempDir()
	jobs := make([]artifactJob, long)
	for i := range jobs {
		rec := *line.Record.Experiment
		rec.Index = i
		jobs[i] = artifactJob{filepath.Join(dir, "exp"), &rec}
	}
	if err := writeArtifactJobs(jobs); err != nil {
		t.Fatal(err)
	}
	pass := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := writeArtifactJobs(jobs[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRecord := (pass(long) - pass(short)) / (long - short)
	t.Logf("allocations per record: %.2f", perRecord)
	if perRecord > budget {
		t.Fatalf("rewriting an intact record's artifacts allocates %.2f objects (budget %.0f)", perRecord, budget)
	}
}

// TestExpDirPathMatchesFmt: an experiment's artifact directory is the
// path filepath.Join and fmt have always named it, for every index a
// record can have and any form of the output directory.
func TestExpDirPathMatchesFmt(t *testing.T) {
	dirs := []string{"", ".", "/", "out", "out/", "./out", "/tmp//a/../b", "../x", "a/./b/"}
	for _, dir := range dirs {
		for _, i := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456, math.MaxInt} {
			if got, want := expDirPath(filepath.Join(dir, "exp"), i), filepath.Join(dir, fmt.Sprintf("exp%03d", i)); got != want {
				t.Errorf("expDirPath(Join(%q, \"exp\"), %d) = %q; want %q", dir, i, got, want)
			}
		}
	}
}

// TestReportJournalAllocBudget: the verdict section a session hands to the
// report (reportJournal) costs allocations per matrix point — its name,
// its entry in the section's map — and none per record: 2,048 held records
// and 16 journal-only ones over 16 points allocate what 16 records over
// the same points do, and at most a few per point.
func TestReportJournalAllocBudget(t *testing.T) {
	const points, journalOnly = 16, 16
	s := &Session{c: &Campaign{Name: "budget", Hosts: []HostDef{{Name: "h1"}}}}
	result := func(perPoint int) *SessionResult {
		out := &MatrixOutcome{}
		for i := range points {
			pr := &campaign.PointResult{
				Point: MatrixPoint{Scenario: Scenario{Name: "netsplit"}, Latency: campaign.LatencyProfile{Name: "wan"}, Seed: int64(i)},
				Study: &StudyOutcome{},
			}
			for x := range perPoint {
				pr.Study.Records = append(pr.Study.Records, &ExperimentRecord{Index: x, Completed: true, Accepted: x%3 != 0})
			}
			out.Points = append(out.Points, pr)
		}
		for x := range journalOnly {
			out.JournalOnly = append(out.JournalOnly, campaign.RecordSummary{Point: "dropped/wan/seed9", Index: x, Verdict: campaign.Rejected})
		}
		return &SessionResult{Matrix: out}
	}
	measure := func(res *SessionResult) float64 {
		return testing.AllocsPerRun(20, func() { s.reportJournal(res) })
	}
	// The campaign fingerprint goes through fmt, whose printer pool a -race
	// build drops at random.
	slack := 0.0
	if raceBuild {
		slack = 10
	}
	few, many := measure(result(1)), measure(result(2048/points))
	t.Logf("%.1f allocations over %d points for %d records, %.1f for %d", few, points, points, many, 2048)
	if many > few+slack {
		t.Errorf("2,048 records allocate %.1f, %d records over the same points %.1f: the section pays per record", many, points, few)
	}
	// Measured at 55 when the budget was set: about 2 per point (the
	// journal-only one included) and 18 for the campaign fingerprint.
	if budget := 4.0*(points+1) + slack; many > budget {
		t.Errorf("the section allocates %.1f over %d points, budget %.0f", many, points+1, budget)
	}
}
