package loki_test

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	loki "repro"
	"repro/internal/analysis"
)

// toolChainDoc is an election study whose every machine injects a fault
// in its own ELECT state at startup — a self-atom, provably correct under
// any clock geometry — over three hosts with distinct clock errors.
const toolChainDoc = `{
  "name": "toolchain",
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 5000000, "drift_ppm": 80},
    {"name": "h3", "offset_ns": -2000000, "drift_ppm": -45}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [{
    "name": "s", "app": "election", "experiments": 1, "runfor": "80ms",
    "nodes": [
      {"name": "black", "host": "h1"},
      {"name": "green", "host": "h2"},
      {"name": "yellow", "host": "h3"}
    ],
    "faults": [
      "black bslow (black:ELECT) once delay(h1,*,1ms) 20ms",
      "green gslow (green:ELECT) once delay(h2,*,1ms) 20ms",
      "yellow yslow (yellow:ELECT) once delay(h3,*,1ms) 20ms"
    ]
  }]
}`

// TestOfflineToolsReproduceGlobal runs the §3.5 off-line tool chain over
// what a one-experiment run writes: alphabeta over timestamps.txt, then
// makeglobal over its bounds and the machines' *.timeline files. The
// global timeline it writes must equal the in-process one byte for byte,
// and its exit status must agree with the in-process verdict.
func TestOfflineToolsReproduceGlobal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/alphabeta and cmd/makeglobal")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the tools with")
	}
	bin := t.TempDir()
	for _, tool := range []string{"alphabeta", "makeglobal"} {
		out, err := exec.Command(goTool, "build", "-o", filepath.Join(bin, tool), "repro/cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	cfg, err := loki.ParseCampaignFile([]byte(toolChainDoc))
	if err != nil {
		t.Fatal(err)
	}
	art := t.TempDir()
	s, err := loki.Open(cfg, loki.WithVirtualTime(), loki.WithArtifacts(art))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, err := s.RunOne(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := e.Record
	if rec.Global == nil || !rec.Accepted || rec.Report == nil || len(rec.Report.Injections) == 0 {
		t.Fatalf("want an accepted experiment with injections: accepted=%v error=%q", rec.Accepted, rec.AnalysisError)
	}
	want, err := analysis.EncodeString(rec.Global)
	if err != nil {
		t.Fatal(err)
	}

	work := t.TempDir()
	ab := filepath.Join(work, "alphabeta.txt")
	if out, err := exec.Command(filepath.Join(bin, "alphabeta"),
		"-stamps", filepath.Join(art, "timestamps.txt"), "-out", ab).CombinedOutput(); err != nil {
		t.Fatalf("alphabeta: %v\n%s", err, out)
	}
	global := filepath.Join(work, "global.timeline")
	args := []string{"-alphabeta", ab, "-out", global}
	for _, l := range e.Locals {
		args = append(args, filepath.Join(art, l.Owner+".timeline"))
	}
	out, err := exec.Command(filepath.Join(bin, "makeglobal"), args...).CombinedOutput()
	var exit *exec.ExitError
	accepted := err == nil
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("makeglobal: %v\n%s", err, out)
	}
	if accepted != rec.Accepted {
		t.Errorf("makeglobal accepted=%v, the in-process analysis accepted=%v:\n%s", accepted, rec.Accepted, out)
	}
	got, err := os.ReadFile(global)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("makeglobal's global timeline (%d bytes) differs from the in-process one (%d bytes)", len(got), len(want))
	}
}
