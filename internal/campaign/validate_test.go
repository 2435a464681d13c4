package campaign

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestValidateCounts: negative worker pools and non-positive experiment
// counts are rejected up front with clear errors instead of being clamped.
func TestValidateCounts(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Workers = -3
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers: %v", err)
	}
	if _, err := RunMatrix(context.Background(), c, &Matrix{Name: "m", Build: func(Point) (*Study, error) { return stepStudy(t, 1), nil }}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers via matrix: %v", err)
	}

	c = stepCampaign(t, 1, 1)
	c.Studies[0].Experiments = 0
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Experiments") {
		t.Errorf("zero experiments: %v", err)
	}
	c.Studies[0].Experiments = -4
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Experiments") {
		t.Errorf("negative experiments: %v", err)
	}

	// A matrix point whose built study carries a bad count fails too.
	c = stepCampaign(t, 1, 1)
	c.Studies = nil
	m := &Matrix{Name: "m", Build: func(Point) (*Study, error) {
		st := stepStudy(t, 1)
		st.Experiments = 0
		return st, nil
	}}
	if _, err := RunMatrix(context.Background(), c, m); err == nil || !strings.Contains(err.Error(), "Experiments") {
		t.Errorf("zero experiments via matrix point: %v", err)
	}
}

// TestRunContextCancelled: a cancelled context stops the dispatcher and
// surfaces context.Canceled; an already-cancelled one runs nothing.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, stepCampaign(t, 4, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run error = %v, want context.Canceled", err)
	}
	if _, err := RunMatrix(ctx, stepCampaign(t, 1, 1), &Matrix{
		Name:  "m",
		Build: func(Point) (*Study, error) { return stepStudy(t, 1), nil },
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunMatrix error = %v, want context.Canceled", err)
	}
	if _, err := RunSingle(ctx, stepCampaign(t, 1, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunSingle error = %v, want context.Canceled", err)
	}
}

// TestSummarizeJournalCounts: the read-only status reader reports the
// complete and accepted records a resume would trust, and never modifies
// the journal.
func TestSummarizeJournalCounts(t *testing.T) {
	dir := t.TempDir()
	c := stepCampaign(t, 3, 1)
	c.Checkpoint = &Checkpoint{Dir: dir}
	if _, err := Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Campaign != "steps" || sum.Fingerprint != ConfigFingerprint(c) {
		t.Errorf("header: %q %s, want steps %s", sum.Campaign, sum.Fingerprint, ConfigFingerprint(c))
	}
	if sum.Torn {
		t.Error("clean journal reported torn")
	}
	if len(sum.Points) != 1 || sum.Points[0].Point != "steps" {
		t.Fatalf("points = %+v", sum.Points)
	}
	p := sum.Points[0]
	if p.Complete != 3 || p.Accepted != 3 {
		t.Errorf("progress = %+v", p)
	}
	if p.Fingerprint != StudyConfigFingerprint(c, c.Studies[0], "steps") {
		t.Errorf("journaled study fingerprint = %s", p.Fingerprint)
	}
	if sum.Complete() != 3 || sum.Accepted() != 3 {
		t.Errorf("totals = %d/%d", sum.Complete(), sum.Accepted())
	}

	// Truncate mid-record: the tail must be reported torn, not counted,
	// and the file must not shrink further (read-only).
	if _, err := SummarizeJournal(t.TempDir()); err == nil {
		t.Error("missing journal accepted")
	}
}

// TestSummarizeJournalTailStates: a journal a live campaign is still
// appending to — a whole record line, then a half-written one — counts the
// whole line as complete and is reported as appending, not torn; Torn is
// reserved for a garbled complete line. Counts always cover the intact
// prefix.
func TestSummarizeJournalTailStates(t *testing.T) {
	dir := t.TempDir()
	c := stepCampaign(t, 2, 1)
	c.Checkpoint = &Checkpoint{Dir: dir}
	if _, err := Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	path := JournalPath(dir)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer mid-round: one record line landed whole, the next is a
	// partial write with no newline yet.
	live := append(append([]byte{}, clean...),
		`{"record":{"Point":"steps","Index":9,"Fingerprint":"x","Experiment":{"Study":"steps","Index":9}}}`+"\n"+`{"record":{"Po`...)
	if err := os.WriteFile(path, live, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Torn {
		t.Error("live journal reported torn")
	}
	if !sum.Appending {
		t.Error("live journal not reported appending")
	}
	if sum.Complete() != 3 || sum.Accepted() != 2 {
		t.Errorf("live journal totals = %d/%d, want 3/2", sum.Complete(), sum.Accepted())
	}

	// A garbled complete line is damage, not a live append.
	garbled := append(append([]byte{}, clean...), "not json\n"...)
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err = SummarizeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Torn || sum.Appending {
		t.Errorf("garbled journal: torn=%v appending=%v, want true/false", sum.Torn, sum.Appending)
	}
	if sum.Complete() != 2 {
		t.Errorf("garbled journal complete = %d, want 2", sum.Complete())
	}
}
