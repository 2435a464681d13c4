package loki_test

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	loki "repro"
)

// runChaosObserved runs the shared chaos matrix (2 points x 2 experiments)
// under virtual time on one worker, with the given observability options.
func runChaosObserved(t *testing.T, opts ...loki.Option) *loki.MatrixOutcome {
	t.Helper()
	opts = append([]loki.Option{
		loki.WithMatrix(chaosMatrix(t, 2)),
		loki.WithVirtualTime(),
	}, opts...)
	s, err := loki.Open(chaosCampaign(1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix == nil {
		t.Fatal("expected a matrix result")
	}
	return res.Matrix
}

// readTree loads every file under root keyed by its relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		out[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceDeterminism: two virtual-time chaos-matrix runs write
// byte-identical trace artifacts — the spans and events are timestamped by
// the injected virtual clock, so the whole trace tree is reproducible,
// file names and bytes alike.
func TestTraceDeterminism(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	runChaosObserved(t, loki.WithTracing(dir1))
	runChaosObserved(t, loki.WithTracing(dir2))
	t1, t2 := readTree(t, dir1), readTree(t, dir2)
	if len(t1) == 0 {
		t.Fatal("no trace artifacts written")
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace trees differ in size: %d vs %d files", len(t1), len(t2))
	}
	for rel, body := range t1 {
		other, ok := t2[rel]
		if !ok {
			t.Errorf("trace %s missing from the second run", rel)
			continue
		}
		if body != other {
			t.Errorf("trace %s differs between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", rel, body, other)
		}
	}
	// The matrix has 2 points x 2 experiments: one trace per experiment.
	if len(t1) != 4 {
		t.Errorf("trace tree holds %d files, want 4", len(t1))
	}
}

// TestTracingPreservesRecords: enabling tracing must not perturb the
// pipeline — canonical records and the checkpoint journal are byte-for-
// byte what an untraced run produces. Run under -race in CI.
func TestTracingPreservesRecords(t *testing.T) {
	journal := func(dir string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "checkpoint.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	plainDir, tracedDir := t.TempDir(), t.TempDir()
	plain := runChaosObserved(t, loki.WithCheckpoint(plainDir, false))
	traced := runChaosObserved(t, loki.WithCheckpoint(tracedDir, false),
		loki.WithTracing(t.TempDir()), loki.WithMetrics())

	if len(plain.Points) != len(traced.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(plain.Points), len(traced.Points))
	}
	for i := range plain.Points {
		pr, tr := plain.Points[i], traced.Points[i]
		for j := range pr.Study.Records {
			got, want := canonRecord(tr.Study.Records[j]), canonRecord(pr.Study.Records[j])
			if got != want {
				t.Errorf("point %s experiment %d diverges with tracing on:\n--- traced ---\n%s--- plain ---\n%s",
					pr.Point.Name(), j, got, want)
			}
		}
	}
	if j1, j2 := journal(plainDir), journal(tracedDir); j1 != j2 {
		t.Errorf("checkpoint journal differs with tracing on:\n--- plain ---\n%s\n--- traced ---\n%s", j1, j2)
	}
}

// TestSessionWatch: the live progress stream delivers study-start, one
// event per completed experiment with cumulative counts, and study-done;
// a cancelled watcher receives nothing more.
func TestSessionWatch(t *testing.T) {
	cfg, err := loki.ParseCampaignFile(virtualParityDoc(true, 3, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		events []loki.ProgressEvent
	)
	s, err := loki.Open(cfg, loki.WithObserver(func(ev loki.ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A watcher cancelled before the run must stay silent.
	silent := 0
	cancel := s.Watch(func(loki.ProgressEvent) { silent++ })
	cancel()

	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if silent != 0 {
		t.Errorf("cancelled watcher received %d events", silent)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 5 { // start + 3 experiments + done
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != loki.EventStudyStart || first.Point != "s1" || first.Experiments != 3 || first.Completed != 0 {
		t.Errorf("first event = %+v, want study-start s1 0/3", first)
	}
	if last.Kind != loki.EventStudyDone || last.Completed != 3 {
		t.Errorf("last event = %+v, want study-done 3/3", last)
	}
	for i, ev := range events[1 : len(events)-1] {
		if ev.Kind != loki.EventExperiment {
			t.Errorf("event %d kind = %s, want experiment", i+1, ev.Kind)
		}
		if ev.Completed != i+1 {
			t.Errorf("event %d completed = %d, want %d (cumulative)", i+1, ev.Completed, i+1)
		}
	}
}

// TestMetricsSnapshotArtifact: WithArtifacts + WithMetrics ends the run
// with a parseable metrics.json whose experiment counters match the
// campaign, and the registry stays reachable through Session.Metrics.
func TestMetricsSnapshotArtifact(t *testing.T) {
	dir := t.TempDir()
	cfg, err := loki.ParseCampaignFile(virtualParityDoc(true, 3, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	s, err := loki.Open(cfg, loki.WithArtifacts(dir), loki.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Metrics() == nil {
		t.Fatal("Session.Metrics() is nil with WithMetrics")
	}
	b, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]uint64          `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	total := snap.Counters[`loki_experiments_total{result="accepted"}`] +
		snap.Counters[`loki_experiments_total{result="rejected"}`] +
		snap.Counters[`loki_experiments_total{result="discarded"}`] +
		snap.Counters[`loki_experiments_total{result="aborted"}`]
	if total != 3 {
		t.Errorf("experiment verdict counters sum to %d, want 3 (counters: %v)", total, snap.Counters)
	}
	if _, ok := snap.Histograms[`loki_experiment_phase_seconds{phase="run"}`]; !ok {
		t.Errorf("phase histogram missing from snapshot: %v", snap.Histograms)
	}
}

// TestTracingNeedsDir: the empty-dir WithTracing form derives OUT/traces
// from WithArtifacts in either option order, and fails at Open without it.
func TestTracingNeedsDir(t *testing.T) {
	cfg, err := loki.ParseCampaignFile(virtualParityDoc(true, 1, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loki.Open(cfg, loki.WithTracing("")); err == nil {
		t.Error("Open accepted WithTracing(\"\") without artifacts")
	}
	dir := t.TempDir()
	s, err := loki.Open(cfg, loki.WithTracing(""), loki.WithArtifacts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	traces := readTree(t, filepath.Join(dir, "traces"))
	if len(traces) != 1 {
		t.Errorf("expected 1 trace under OUT/traces, found %d", len(traces))
	}
}
