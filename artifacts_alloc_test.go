package loki

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestArtifactPassAllocBudget holds the allocations per record of a
// resume's artifact pass (writeArtifactJobs) over an intact tree, where
// every file already holds its bytes: the golden election record under
// distinct indices, long minus short pass so the goroutines' own costs
// cancel. Measured at 8.0 when the budget was set: the experiment
// directory's name, four path joins and one C string per file opened (16.0
// when each file was opened through os.File and rewritten after a MkdirAll
// per record). A -race build measured 8.4; its slack is for the pools -race
// drops at random.
func TestArtifactPassAllocBudget(t *testing.T) {
	budget := 9.0
	if raceBuild {
		budget = 11
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
		jobs[i] = artifactJob{dir, &rec}
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
