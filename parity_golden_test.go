package loki_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	loki "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden journals")

// Golden journal parity: the built-in applications, built through the
// campaign-file path, must keep producing canonical records byte-identical
// to the journals captured before the application layer moved onto the
// public SPI. Virtual time plus one worker makes the checkpoint journal
// fully deterministic (PR 6), so the whole file — header version and
// fingerprint, record wire bytes — is the comparison unit: any behavioural
// drift in a ported application, the registry build path, or the record
// encoding shows up as a byte diff. The goldens were regenerated once, for
// journal version 2 (PR 18), which dropped the done-marker lines and left
// every record line byte-identical.

const goldenElectionDoc = `{
  "name": "golden-election",
  "seed": 7,
  "virtual_time": true,
  "workers": 1,
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 5000000, "drift_ppm": 80},
    {"name": "h3", "offset_ns": -2000000, "drift_ppm": -45}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [{
    "name": "golden",
    "app": "election",
    "nodes": [
      {"name": "black", "host": "h1"},
      {"name": "green", "host": "h2"},
      {"name": "yellow", "host": "h3"}
    ],
    "faults": [
      "black bfault (black:ELECT) once",
      "green gfault (green:ELECT) once"
    ],
    "experiments": 4,
    "runfor": "80ms",
    "dormancy": "5ms",
    "timeout": "10s"
  }]
}`

const goldenReplicaDoc = `{
  "name": "golden-replica",
  "seed": 11,
  "virtual_time": true,
  "workers": 1,
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 3000000, "drift_ppm": 60},
    {"name": "h3", "offset_ns": -4000000, "drift_ppm": -30}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [{
    "name": "golden",
    "app": "replica",
    "nodes": [
      {"name": "r1", "host": "h1"},
      {"name": "r2", "host": "h2"},
      {"name": "r3", "host": "h3"}
    ],
    "faults": [
      "r1 pfault (r1:PRIMARY) once"
    ],
    "experiments": 4,
    "runfor": "80ms",
    "dormancy": "3ms",
    "timeout": "10s"
  }]
}`

func runGoldenJournal(t *testing.T, doc, goldenPath string) {
	t.Helper()
	cfg, err := loki.ParseCampaignFile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := loki.Open(cfg, loki.WithCheckpoint(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "checkpoint.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte(`"Accepted":true`)) {
		t.Fatalf("golden run is vacuous: no accepted experiment in journal")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden journal (regenerate with `go test -run TestGoldenAppParity -update .`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal differs from pre-refactor golden %s:\n%s", goldenPath, firstJournalDiff(got, want))
	}
}

// firstJournalDiff locates the first differing line for a readable failure.
func firstJournalDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d:\n  got:  %.300s\n  want: %.300s", i+1, g, w)
		}
	}
	return "files identical?"
}

// TestGoldenAppParity proves the ported built-in applications produce
// records byte-identical to the journals captured before the SPI refactor.
func TestGoldenAppParity(t *testing.T) {
	t.Run("election", func(t *testing.T) {
		runGoldenJournal(t, goldenElectionDoc, filepath.Join("testdata", "golden_election.journal"))
	})
	t.Run("replica", func(t *testing.T) {
		runGoldenJournal(t, goldenReplicaDoc, filepath.Join("testdata", "golden_replica.journal"))
	})
}
