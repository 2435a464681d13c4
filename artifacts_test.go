package loki_test

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
// virtual-time chaos matrix whose artifact tree was damaged in every way
// the writer must notice rewrites it to exactly what a fresh Run writes
// elsewhere: a junk tail, a same-length flipped byte, a truncated file, an
// emptied file, a deleted expNNN directory and a deleted matrix-point
// directory (the last two need the experiment directory made again). A
// second Resume over the now intact tree writes nothing: every file keeps
// the mtime it was set back to. Fails if the writer stops cutting files
// to their new length, trusts a file of the right size without comparing
// it, or no longer makes a missing directory.
func TestResumeRewritesArtifactsByteIdentical(t *testing.T) {
	stale, fresh := t.TempDir(), t.TempDir()
	run := func(dir string) {
		t.Helper()
		s, err := loki.Open(chaosCampaign(1), loki.WithMatrix(chaosMatrix(t, 3)), loki.WithVirtualTime(), loki.WithArtifacts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	resume := func() {
		t.Helper()
		s, err := loki.Open(chaosCampaign(1), loki.WithMatrix(chaosMatrix(t, 3)), loki.WithVirtualTime(), loki.WithArtifacts(stale))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Resume(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(stale)
	run(fresh)
	// The journal is in the tree too: it must match, but it is the record
	// the artifacts are rebuilt from, not one of them.
	const journal = "checkpoint.jsonl"
	want := artifactTree(t, fresh)
	if _, ok := want[journal]; !ok || len(want)-1 != 3*3*2 {
		t.Fatalf("fresh run wrote %d files, want the journal and 18 artifacts (3 per experiment, 3 experiments, 2 points)", len(want))
	}
	same := func(when string) {
		t.Helper()
		got := artifactTree(t, stale)
		for rel, w := range want {
			if g, ok := got[rel]; !ok {
				t.Errorf("%s: %s missing", when, rel)
			} else if g != w {
				t.Errorf("%s: %s holds %d bytes, a fresh Run wrote %d", when, rel, len(g), len(w))
			}
		}
		for rel := range got {
			if _, ok := want[rel]; !ok {
				t.Errorf("%s: %s is a file a fresh Run does not write", when, rel)
			}
		}
	}
	same("before any damage")
	artifacts := slices.DeleteFunc(slices.Sorted(maps.Keys(want)), func(rel string) bool { return rel == journal })

	pts := chaosMatrix(t, 3).Points()
	point := filepath.Join(stale, pts[len(pts)-1].Name())
	exp := filepath.Join(stale, pts[0].Name(), "exp002")
	for _, dir := range []string{point, exp} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	damage := []func(b []byte) []byte{
		func(b []byte) []byte { return append(b, strings.Repeat("stale tail\n", 100)...) },
		func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, // same length
		func(b []byte) []byte { return b[:len(b)/2] },
		func([]byte) []byte { return nil },
	}
	rels := slices.DeleteFunc(slices.Sorted(maps.Keys(artifactTree(t, stale))), func(rel string) bool { return rel == journal })
	if len(rels) != 6 {
		t.Fatalf("%d files left to damage, want the 6 of the two experiments left", len(rels))
	}
	for i, rel := range rels {
		path := filepath.Join(stale, rel)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damage[i%len(damage)](b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resume()
	same("after Resume over a damaged tree")

	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, rel := range artifacts {
		if err := os.Chtimes(filepath.Join(stale, rel), past, past); err != nil {
			t.Fatal(err)
		}
	}
	resume()
	same("after Resume over an intact tree")
	for _, rel := range artifacts {
		fi, err := os.Stat(filepath.Join(stale, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(past) {
			t.Errorf("%s: Resume over an intact tree moved its mtime to %v", rel, fi.ModTime())
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
