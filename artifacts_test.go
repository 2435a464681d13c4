package loki_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	loki "repro"
)

// artifactTree reads every file under root that a rerun must reproduce
// byte for byte: all but the report and the metrics snapshot, which
// carry wall-clock timings and the directory they were rendered from.
func artifactTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := readTree(t, root)
	for rel := range tree {
		if strings.HasPrefix(rel, "report.") || rel == "metrics.json" {
			delete(tree, rel)
		}
	}
	return tree
}

// TestResumeRewritesArtifactsByteIdentical: Resume over a journaled
// virtual-time chaos matrix whose artifact files all grew a junk tail
// rewrites them to exactly what a fresh Run writes elsewhere. Fails if the
// artifact writer stops cutting files to their new length.
func TestResumeRewritesArtifactsByteIdentical(t *testing.T) {
	stale, fresh := t.TempDir(), t.TempDir()
	runChaosObserved(t, loki.WithArtifacts(stale))
	junk := strings.Repeat("stale tail\n", 100)
	for rel := range readTree(t, stale) {
		if rel == "checkpoint.jsonl" {
			continue
		}
		f, err := os.OpenFile(filepath.Join(stale, rel), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.WriteString(junk)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	s, err := loki.Open(chaosCampaign(1), loki.WithMatrix(chaosMatrix(t, 2)), loki.WithVirtualTime(), loki.WithArtifacts(stale))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	runChaosObserved(t, loki.WithArtifacts(fresh))

	got, want := artifactTree(t, stale), artifactTree(t, fresh)
	if len(want) < 3*4 {
		t.Fatalf("fresh run wrote %d artifact files, want at least 12 (3 per experiment)", len(want))
	}
	for rel, w := range want {
		if g, ok := got[rel]; !ok {
			t.Errorf("%s: missing after Resume", rel)
		} else if g != w {
			t.Errorf("%s: Resume left %d bytes, a fresh Run wrote %d", rel, len(g), len(w))
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: Resume left a file a fresh Run does not write", rel)
		}
	}
}

// TestRunArtifactErrorNotLost: when an experiment directory cannot be
// created, Run returns the error of the first failing experiment in job
// order once every writer goroutine has finished, instead of hanging or
// dropping it. Fails if a goroutine's error is not kept.
func TestRunArtifactErrorNotLost(t *testing.T) {
	dir := t.TempDir()
	pts := chaosMatrix(t, 2).Points()
	first := filepath.Join(dir, pts[0].Name(), "exp001")
	last := filepath.Join(dir, pts[len(pts)-1].Name(), "exp000")
	for _, p := range []string{first, last} {
		// A file where the experiment directory belongs: MkdirAll fails
		// whatever the process's permissions.
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := loki.Open(chaosCampaign(1), loki.WithMatrix(chaosMatrix(t, 2)), loki.WithVirtualTime(), loki.WithArtifacts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background())
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run did not return")
	}
	if err == nil {
		t.Fatal("Run over an unwritable experiment directory returned no error")
	}
	if !strings.Contains(err.Error(), first) {
		t.Errorf("Run error = %v, want the first failing job's path %s", err, first)
	}
}
