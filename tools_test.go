package loki_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	loki "repro"
	"repro/internal/analysis"
	"repro/internal/clocksync"
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

// buildTools builds the named commands into a temporary directory, or
// skips the test where there is no go command or -short asks for speed.
func buildTools(t *testing.T, tools ...string) (bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds " + strings.Join(tools, ", "))
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the tools with")
	}
	bin = t.TempDir()
	for _, tool := range tools {
		out, err := exec.Command(goTool, "build", "-o", filepath.Join(bin, tool), "repro/cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return bin
}

// TestOfflineToolsReproduceGlobal runs the §3.5 off-line tool chain over
// what a one-experiment run writes: alphabeta over timestamps.txt, then
// makeglobal over its bounds and the machines' *.timeline files. The
// global timeline it writes must equal the in-process one byte for byte,
// and its exit status must agree with the in-process verdict.
func TestOfflineToolsReproduceGlobal(t *testing.T) {
	bin := buildTools(t, "alphabeta", "makeglobal")

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

// TestGetstampsBoundsContainTruth runs the §5.6–5.7 pair of off-line tools:
// getstamps stamps two sync mini-phases on a simulated LAN and appends each
// host's hidden clock error as a comment; alphabeta fits bounds to the
// stamps. Every host's ground truth — alpha = its offset, beta = 1 + its
// drift, against an error-free reference — must lie inside its (alpha,
// beta) box, at three seeds.
func TestGetstampsBoundsContainTruth(t *testing.T) {
	bin := buildTools(t, "getstamps", "alphabeta")
	work := t.TempDir()
	machines := filepath.Join(work, "machines.txt")
	if err := os.WriteFile(machines, []byte("h1\nh2\nh3\nh4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{1, 2, 3} {
		stamps := filepath.Join(work, fmt.Sprintf("stamps%d.txt", seed))
		if out, err := exec.Command(filepath.Join(bin, "getstamps"), "-machines", machines,
			"-seed", fmt.Sprint(seed), "-out", stamps).CombinedOutput(); err != nil {
			t.Fatalf("seed %d: getstamps: %v\n%s", seed, err, out)
		}
		doc, err := os.ReadFile(stamps)
		if err != nil {
			t.Fatal(err)
		}
		var ref string
		truth := map[string][2]float64{} // host -> offset ns, drift ppm
		for _, line := range strings.Split(string(doc), "\n") {
			switch f := strings.Fields(line); {
			case len(f) == 3 && f[0] == "#" && f[1] == "reference":
				ref = f[2]
			case len(f) == 5 && f[0] == "#" && f[1] == "truth":
				offset, err1 := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(f[3], "offset="), "ns"), 64)
				drift, err2 := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(f[4], "drift="), "ppm"), 64)
				if err := errors.Join(err1, err2); err != nil {
					t.Fatalf("seed %d: truth line %q: %v", seed, line, err)
				}
				truth[f[2]] = [2]float64{offset, drift}
			}
		}
		if ref == "" || len(truth) != 4 {
			t.Fatalf("seed %d: trailer names reference %q and %d hosts' truth, want 4", seed, ref, len(truth))
		}

		ab := filepath.Join(work, fmt.Sprintf("alphabeta%d.txt", seed))
		if out, err := exec.Command(filepath.Join(bin, "alphabeta"), "-stamps", stamps, "-ref", ref, "-out", ab).CombinedOutput(); err != nil {
			t.Fatalf("seed %d: alphabeta: %v\n%s", seed, err, out)
		}
		f, err := os.Open(ab)
		if err != nil {
			t.Fatal(err)
		}
		gotRef, bounds, err := clocksync.DecodeAlphaBeta(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if gotRef != ref {
			t.Errorf("seed %d: alphabeta reference %s, want %s", seed, gotRef, ref)
		}
		for host, tr := range truth {
			b, ok := bounds[host]
			if !ok {
				t.Errorf("seed %d: alphabeta has no bounds for %s", seed, host)
				continue
			}
			if alpha, beta := tr[0], 1+tr[1]/1e6; !b.Contains(alpha, beta) {
				t.Errorf("seed %d: %s bounds %+v miss the truth alpha=%g beta=%.9g", seed, host, b, alpha, beta)
			}
		}
	}
}
