package loki

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/campaign"
)

// TestArtifactPassAllocBudget holds the allocations per record of a
// resume's artifact pass (writeArtifactJobs) over an intact tree, where
// every file already holds its bytes: the golden election record under
// distinct indices, long minus short pass so the goroutines' own costs
// cancel. Measured at 0.0 on Linux when the budget was set: the pass opens
// the directory once and each file relative to it, by a name built in
// reused buffers (7.0 when each record built its experiment directory's
// path, joined three file paths and converted each to a C string; 8.0 when
// the directory's name came from fmt.Sprintf and a fourth join; 16.0 when
// each file was opened through os.File and rewritten after a MkdirAll per
// record). Other unix systems join each name to the directory's path in
// the same buffer and pay the path's string and C string per file: 6.0,
// measured on Linux with the Linux files swapped for theirs, within the
// budget of 8 the path-by-path pass was held to. Systems without unix
// descriptors go through os.File, measured the same way at 15.0 (16.0
// for the path-by-path pass, which the budget of 8 did not hold). The
// slack of a -race build is for the pools -race drops at random.
func TestArtifactPassAllocBudget(t *testing.T) {
	var budget float64
	switch runtime.GOOS {
	case "linux":
		budget = 1
	case "js", "plan9", "wasip1", "windows":
		budget = 16
	default:
		budget = 8
	}
	if raceBuild {
		budget += 2
	}
	golden := goldenRecord(t)
	const short, long = 16, 144
	dir := t.TempDir()
	recs := make([]*ExperimentRecord, long)
	for i := range recs {
		rec := golden
		rec.Index = i
		recs[i] = &rec
	}
	jobs := appendArtifactJobs(nil, dir, &StudyOutcome{Records: recs})
	if err := writeArtifactJobs(jobs); err != nil {
		t.Fatal(err)
	}
	pass := func(n int) float64 {
		jobs := appendArtifactJobs(nil, dir, &StudyOutcome{Records: recs[:n]})
		return testing.AllocsPerRun(5, func() {
			if err := writeArtifactJobs(jobs); err != nil {
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

// TestExpDirPathMatchesFmt: an experiment's artifact directory is named
// as fmt has always named it, for every index a record can have, and the
// name appends to whatever the buffer holds.
func TestExpDirPathMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456, math.MaxInt} {
		if got, want := string(appendExpName([]byte("dir/"), i)), "dir/"+fmt.Sprintf("exp%03d", i); got != want {
			t.Errorf("appendExpName(%q, %d) = %q; want %q", "dir/", i, got, want)
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
