package campaign

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/spec"
)

// TestValidateCounts: negative worker pools and non-positive experiment
// counts are rejected up front with clear errors instead of being clamped.
func TestValidateCounts(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Workers = -3
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers: %v", err)
	}
	if _, err := RunMatrix(context.Background(), c, &Matrix{Name: "m", Study: stepStudy(t, 1)}); err == nil || !strings.Contains(err.Error(), "Workers") {
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

	// A matrix whose template carries a bad count fails too.
	c = stepCampaign(t, 1, 1)
	c.Studies = nil
	m := &Matrix{Name: "m", Study: stepStudy(t, 1)}
	m.Study.Experiments = 0
	if _, err := RunMatrix(context.Background(), c, m); err == nil || !strings.Contains(err.Error(), "Experiments") {
		t.Errorf("zero experiments via matrix template: %v", err)
	}
}

// TestNilExprRefusedBeforeJournal: a Go-wired fault with no expression —
// in a study's node, in a matrix's template, or in a scenario fault of a
// later point — is refused by Validate, naming the node and the fault,
// before a journal is opened. The runtime would dereference it on a
// worker goroutine and crash the process. So is a later scenario's fault
// on a machine the template does not have: Validate checks every
// scenario's overlay, not only the first point's. Run under -race in CI.
func TestNilExprRefusedBeforeJournal(t *testing.T) {
	ctx := context.Background()
	nilExpr := func(st *Study) *Study {
		st.Nodes[1].Faults[0].Expr = nil
		return st
	}
	cases := []struct {
		name, want string
		run        func(c *Campaign) error
	}{
		{"study", `study "steps": node "beta" fault "betafault" has no expression`, func(c *Campaign) error {
			nilExpr(c.Studies[0])
			_, err := Run(ctx, c)
			return err
		}},
		{"matrix template", `node "beta" fault "betafault" has no expression`, func(c *Campaign) error {
			_, err := RunMatrix(ctx, c, &Matrix{Name: "m", Study: nilExpr(stepStudy(t, 1))})
			return err
		}},
		{"scenario fault", `scenario "bad": node "gamma" fault "late" has no expression`, func(c *Campaign) error {
			_, err := RunMatrix(ctx, c, &Matrix{
				Name: "m",
				Scenarios: []Scenario{
					{Name: "baseline"},
					{Name: "bad", Faults: []ScenarioFault{{Machine: "gamma", Spec: faultexpr.Spec{Name: "late", Mode: faultexpr.Once}}}},
				},
				Study: stepStudy(t, 1),
			})
			return err
		}},
		{"unknown machine", `scenario "bad" fault "cut" names unknown machine "ghost"`, func(c *Campaign) error {
			_, err := RunMatrix(ctx, c, &Matrix{
				Name: "m",
				Scenarios: []Scenario{
					{Name: "baseline"},
					{Name: "bad", Faults: []ScenarioFault{{Machine: "ghost", Spec: faultexpr.Spec{Name: "cut", Expr: faultexpr.MustParse("(alpha:S2)"), Mode: faultexpr.Once}}}},
				},
				Study: stepStudy(t, 1),
			})
			return err
		}},
	}
	for _, tc := range cases {
		c := stepCampaign(t, 1, 1)
		dir := t.TempDir()
		c.Checkpoint = &Checkpoint{Dir: dir}
		if err := tc.run(c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v; want one naming %s", tc.name, err, tc.want)
		}
		if _, err := os.Stat(JournalPath(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a journal was opened before the refusal (stat: %v)", tc.name, err)
		}
	}
}

// countedStudy is a one-node study on h1 whose app body counts itself in
// live while it runs, raising peak to the most bodies ever alive at once.
func countedStudy(t testing.TB, name string, experiments int, live, peak *atomic.Int64) *Study {
	return &Study{
		Name:        name,
		Nodes:       []core.NodeDef{{Nickname: "alpha", Spec: stepSpec(t)}},
		Placement:   []spec.NodeEntry{{Nickname: "alpha", Host: "h1"}},
		Experiments: experiments,
		Timeout:     5 * time.Second,
		NewApp: func(Point, string) (core.App, error) {
			return probe.NewInstrumented(func(h *core.Handle) {
				n := live.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				h.NotifyEvent("S1")
				h.Sleep(10 * time.Millisecond)
				h.NotifyEvent("GO")
				h.NotifyEvent("GO2")
				live.Add(-1)
			}), nil
		},
	}
}

// TestRunRefusesBeforeFirstStudy: a mistake in a campaign's second study
// fails Run before the first study's experiments run, and the error names
// the study once. A study's nodes carry no application (every testbed
// builds its own with NewApp), so one that does is such a mistake.
func TestRunRefusesBeforeFirstStudy(t *testing.T) {
	for name, mut := range map[string]func(st *Study){
		"zero experiments":  func(st *Study) { st.Experiments = 0 },
		"unknown transport": func(st *Study) { st.Transport = "udpp" },
		"no NewApp":         func(st *Study) { st.NewApp = nil },
		"an App in a node": func(st *Study) {
			st.Nodes[0].App, _ = st.NewApp(Point{}, st.Nodes[0].Nickname)
		},
	} {
		var live, peak atomic.Int64
		c := stepCampaign(t, 1, 1)
		c.Studies = []*Study{countedStudy(t, "first", 3, &live, &peak), countedStudy(t, "second", 1, &live, &peak)}
		mut(c.Studies[1])
		_, err := Run(context.Background(), c)
		if err == nil {
			t.Errorf("%s: Run accepted the campaign", name)
			continue
		}
		if n := strings.Count(err.Error(), `"second"`); n != 1 {
			t.Errorf("%s: error names the study %d times: %v", name, n, err)
		}
		if peak.Load() != 0 {
			t.Errorf("%s: app bodies ran before the refusal", name)
		}
	}
}

// TestMatrixPointPoolWithinWorkers: a matrix point's experiment pool is
// its share of Campaign.Workers, so no more than Workers runtime phases
// are ever live at once.
func TestMatrixPointPoolWithinWorkers(t *testing.T) {
	const workers = 2
	var live, peak atomic.Int64
	c := stepCampaign(t, 1, workers)
	c.Studies = nil
	m := &Matrix{Name: "pool", Seeds: []int64{1, 2, 3, 4}, Study: countedStudy(t, "", 6, &live, &peak)}
	if _, err := RunMatrix(context.Background(), c, m); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak of %d live app bodies at Workers=%d", got, workers)
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
		Study: stepStudy(t, 1),
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
	if p.Tally != (Tally{Experiments: 3, Accepted: 3}) {
		t.Errorf("progress = %+v", p)
	}
	if ns, err := Namespaces(c, nil); err != nil || p.Fingerprint != ns[0].Fingerprint {
		t.Errorf("journaled study fingerprint = %s", p.Fingerprint)
	}
	if tot := sum.Totals(); tot.Experiments != 3 || tot.Accepted != 3 {
		t.Errorf("totals = %d/%d", tot.Experiments, tot.Accepted)
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
	live := append(append(append([]byte{}, clean...),
		refFrame(`{"record":`, []byte(`{"Point":"steps","Index":9,"Fingerprint":"x","Experiment":{"Study":"steps","Index":9}}`))...),
		`{"record":{"Po`...)
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
	if tot := sum.Totals(); tot.Experiments != 3 || tot.Accepted != 2 {
		t.Errorf("live journal totals = %d/%d, want 3/2", tot.Experiments, tot.Accepted)
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
	if sum.Totals().Experiments != 2 {
		t.Errorf("garbled journal complete = %d, want 2", sum.Totals().Experiments)
	}
}
