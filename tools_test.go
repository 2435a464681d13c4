package loki_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	loki "repro"
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

// buildLokirun builds cmd/lokirun, whose subcommands are the §3.5
// off-line tools, into a temporary directory and returns the binary's
// path. It skips the test where there is no go command or -short asks for
// speed.
func buildLokirun(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds lokirun")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build lokirun with")
	}
	bin := filepath.Join(t.TempDir(), "lokirun")
	if out, err := exec.Command(goTool, "build", "-o", bin, "repro/cmd/lokirun").CombinedOutput(); err != nil {
		t.Fatalf("building lokirun: %v\n%s", err, out)
	}
	return bin
}

// runToolChainDoc runs toolChainDoc's one experiment in process under
// virtual time with its raw artifacts written to a new directory, and
// returns the directory and the experiment.
func runToolChainDoc(t *testing.T) (string, *loki.Experiment) {
	t.Helper()
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
	return art, e
}

// TestLokirunRuntimeMatchesRunOne: "lokirun runtime" writes the raw
// artifacts of toolChainDoc's experiment — one *.timeline file per
// machine and timestamps.txt — byte for byte as an in-process RunOne of
// the same file does.
func TestLokirunRuntimeMatchesRunOne(t *testing.T) {
	lokirun := buildLokirun(t)
	want, e := runToolChainDoc(t)

	work := t.TempDir()
	file := filepath.Join(work, "campaign.json")
	if err := os.WriteFile(file, []byte(toolChainDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(work, "out")
	if code, out := exitCode(t, lokirun, "runtime", "-config", file, "-virtual-time", "-out", got); code != 0 {
		t.Fatalf("lokirun runtime: exit %d\n%s", code, out)
	}
	names := []string{"timestamps.txt"}
	for _, l := range e.Locals {
		names = append(names, l.Owner+".timeline")
	}
	for _, name := range names {
		w, err1 := os.ReadFile(filepath.Join(want, name))
		g, err2 := os.ReadFile(filepath.Join(got, name))
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: lokirun runtime wrote %d bytes that differ from RunOne's %d", name, len(g), len(w))
		}
	}
}

// TestOfflineToolsReproduceGlobal runs the §3.5 off-line tool chain over
// what a one-experiment run writes: alphabeta over timestamps.txt, then
// makeglobal over its bounds and the machines' *.timeline files. The
// global timeline it writes must equal the in-process one byte for byte,
// and its exit status must agree with the in-process verdict.
func TestOfflineToolsReproduceGlobal(t *testing.T) {
	lokirun := buildLokirun(t)
	art, e := runToolChainDoc(t)
	rec := e.Record
	if rec.Global == nil || !rec.Accepted || rec.Report == nil || len(rec.Report.Injections) == 0 {
		t.Fatalf("want an accepted experiment with injections: accepted=%v error=%q", rec.Accepted, rec.AnalysisError)
	}
	text, err := rec.Global.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	want := string(text)

	work := t.TempDir()
	ab := filepath.Join(work, "alphabeta.txt")
	if out, err := exec.Command(lokirun, "alphabeta",
		"-stamps", filepath.Join(art, "timestamps.txt"), "-out", ab).CombinedOutput(); err != nil {
		t.Fatalf("alphabeta: %v\n%s", err, out)
	}
	global := filepath.Join(work, "global.timeline")
	args := []string{"makeglobal", "-alphabeta", ab, "-out", global}
	for _, l := range e.Locals {
		args = append(args, filepath.Join(art, l.Owner+".timeline"))
	}
	out, err := exec.Command(lokirun, args...).CombinedOutput()
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

// measureDoc is a §5.8 coverage-style election study: black crashes a
// dormancy after it first leads and restarts, so how long it is down and
// how long it leads differ from experiment to experiment.
const measureDoc = `{
  "name": "measure",
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 5000000, "drift_ppm": 80},
    {"name": "h3", "offset_ns": -2000000, "drift_ppm": -45}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [{
    "name": "s", "app": "election", "seed": 1, "experiments": 6,
    "runfor": "100ms", "dormancy": "10ms", "timeout": "10s", "restart": true,
    "nodes": [
      {"name": "black", "host": "h1"},
      {"name": "green", "host": "h2"},
      {"name": "yellow", "host": "h3"}
    ],
    "faults": ["black bfault1 (black:LEAD) once"]
  }]
}`

// TestLokimeasureMatchesInProcess runs the Chapter 4 measure tool
// (lokirun measure) over the
// global.timeline files a WithArtifacts run writes. The values it prints
// and their statistics must equal the in-process measure over the same
// records' Global: the artifact round trip loses nothing a measure reads.
func TestLokimeasureMatchesInProcess(t *testing.T) {
	lokirun := buildLokirun(t)

	cfg, err := loki.ParseCampaignFile([]byte(measureDoc))
	if err != nil {
		t.Fatal(err)
	}
	art := t.TempDir()
	s, err := loki.Open(cfg, loki.WithVirtualTime(), loki.WithArtifacts(art))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	triples := []string{
		"default ; (black, CRASH) ; total_duration(T, START_EXP, END_EXP)",
		"(OBS_VALUE > 0) ; (black, LEAD) ; total_duration(T, START_EXP, END_EXP)",
	}
	var parsed []loki.Triple
	args := []string{"measure", "-name", "election"}
	for _, src := range triples {
		parts := strings.Split(src, ";")
		sel, err1 := loki.ParseSelector(strings.TrimSpace(parts[0]))
		pred, err2 := loki.ParsePredicate(strings.TrimSpace(parts[1]))
		obs, err3 := loki.ParseObservation(strings.TrimSpace(parts[2]))
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("triple %q: %v", src, err)
		}
		parsed = append(parsed, loki.Triple{Select: sel, Pred: pred, Obs: obs})
		args = append(args, "-triple", src)
	}
	m, err := loki.NewStudyMeasure("election", parsed...)
	if err != nil {
		t.Fatal(err)
	}
	var globals []*loki.GlobalTimeline
	for _, rec := range res.Campaign.Studies[0].Records {
		if rec.Global == nil {
			t.Fatalf("experiment %d has no global timeline: %s", rec.Index, rec.AnalysisError)
		}
		globals = append(globals, rec.Global)
		args = append(args, filepath.Join(art, fmt.Sprintf("exp%03d", rec.Index), "global.timeline"))
	}
	want := m.ApplyAll(globals)
	mo := loki.ComputeMoments(want)
	if len(want) < 2 || mo.Variance() == 0 {
		t.Fatalf("in-process values %v: want a sample that varies", want)
	}

	out, err := exec.Command(lokirun, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("lokirun measure: %v\n%s", err, out)
	}
	var got []float64
	stats := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 3 && f[0] == "value":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("value line %q: %v", line, err)
			}
			got = append(got, v)
		case len(f) >= 2:
			stats[f[0]] = f[1]
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("lokirun measure values %v, in-process %v\n%s", got, want, out)
	}
	wantStats := map[string]float64{"mean": mo.Mean(), "variance": mo.Variance(), "skewness": mo.Skew(), "kurtosis": mo.ExcessKurtosis()}
	for _, gamma := range []float64{0.05, 0.5, 0.95} {
		if p, err := mo.Percentile(gamma); err == nil {
			wantStats[fmt.Sprintf("p%02.0f", gamma*100)] = p
		}
	}
	for name, v := range wantStats {
		if w := fmt.Sprintf("%.6g", v); stats[name] != w {
			t.Errorf("lokirun measure %s %s, in-process %s\n%s", name, stats[name], w, out)
		}
	}
}

// TestGetstampsBoundsContainTruth runs the §5.6–5.7 pair of off-line tools:
// getstamps stamps two sync mini-phases on a simulated LAN and appends each
// host's hidden clock error as a comment; alphabeta fits bounds to the
// stamps. Every host's ground truth — alpha = its offset, beta = 1 + its
// drift, against an error-free reference — must lie inside its (alpha,
// beta) box, at three seeds.
func TestGetstampsBoundsContainTruth(t *testing.T) {
	lokirun := buildLokirun(t)
	work := t.TempDir()
	machines := filepath.Join(work, "machines.txt")
	if err := os.WriteFile(machines, []byte("h1\nh2\nh3\nh4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{1, 2, 3} {
		stamps := filepath.Join(work, fmt.Sprintf("stamps%d.txt", seed))
		if out, err := exec.Command(lokirun, "getstamps", "-machines", machines,
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
		if out, err := exec.Command(lokirun, "alphabeta", "-stamps", stamps, "-ref", ref, "-out", ab).CombinedOutput(); err != nil {
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
			if alpha, beta := tr[0], 1+tr[1]/1e6; alpha < b.AlphaLo || alpha > b.AlphaHi || beta < b.BetaLo || beta > b.BetaHi {
				t.Errorf("seed %d: %s bounds %+v miss the truth alpha=%g beta=%.9g", seed, host, b, alpha, beta)
			}
		}
	}
}

// exitCode runs lokirun with args and returns its exit status and its
// combined output; it fails the test when lokirun could not be run.
func exitCode(t *testing.T, lokirun string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(lokirun, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("lokirun %s: %v\n%s", strings.Join(args, " "), err, out)
	return 0, ""
}

// TestGetstampsRefusesBadFlags: getstamps refuses a round-trip count
// below 1, a spacing that is not positive and a negative gap as usage
// errors (exit 2, the problem named, nothing written): the exchange would
// quietly replace a zero or negative count or spacing with its defaults,
// and a negative gap would move the virtual clock backwards.
func TestGetstampsRefusesBadFlags(t *testing.T) {
	lokirun := buildLokirun(t)
	work := t.TempDir()
	machines := filepath.Join(work, "machines.txt")
	if err := os.WriteFile(machines, []byte("h1\nh2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ flag, value string }{
		{"-count", "0"},
		{"-count", "-1"},
		{"-spacing", "0"},
		{"-spacing", "-1ms"},
		{"-gap", "-60s"},
	} {
		stamps := filepath.Join(work, "stamps.txt")
		code, out := exitCode(t, lokirun, "getstamps", "-machines", machines, "-out", stamps, tc.flag, tc.value)
		if code != 2 || !strings.Contains(out, "getstamps: "+tc.flag+" ") || !strings.Contains(out, "Usage of lokirun getstamps") {
			t.Errorf("getstamps %s %s: exit %d, want 2 with the problem and the usage:\n%s", tc.flag, tc.value, code, out)
		}
		if _, err := os.Stat(stamps); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("getstamps %s %s wrote %s (stat: %v)", tc.flag, tc.value, stamps, err)
		}
	}
	if code, out := exitCode(t, lokirun, "getstamps", "-machines", machines, "-count", "1", "-gap", "0"); code != 0 ||
		!strings.Contains(out, "wrote 4 messages for 2 hosts") {
		t.Errorf("getstamps -count 1 -gap 0: exit %d, want 0 and 4 messages:\n%s", code, out)
	}
}

// TestLokirunDispatch: the first argument picks an off-line tool or the
// runtime subcommand only when it names one; anything else is lokirun's
// own campaign command line. Both campaign commands refuse flag
// combinations they cannot honour before anything runs.
func TestLokirunDispatch(t *testing.T) {
	lokirun := buildLokirun(t)
	for _, tc := range []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"alphabeta"}, 2, []string{"Usage of lokirun alphabeta", "-stamps"}},
		{[]string{"-config", "examples/chaos/campaign.json", "-dry-run"}, 0, []string{": valid\nfingerprint "}},
		{[]string{"bogus"}, 2, []string{"Usage of", "-config", "-dry-run", "Off-line tools: lokirun getstamps"}},
		{[]string{"runtime", "-config", "examples/chaos/campaign.json", "-experiments", "2", "-out", "unwritten"}, 1, []string{"lokirun runtime: -experiments: the runtime phase runs exactly one experiment"}},
		{[]string{"-config", "examples/chaos/campaign.json", "-trace"}, 1, []string{"lokirun: -trace requires -out"}},
		{[]string{"-config", "examples/chaos/campaign.json", "-listen", "127.0.0.1:0"}, 1, []string{"-listen, -peers and -owners configure a cluster peer and need -name"}},
		{[]string{"runtime", "-config", "examples/chaos/campaign.json"}, 2, []string{"lokirun runtime: -out is required", "Usage of lokirun runtime", "-name"}},
	} {
		code, out := exitCode(t, lokirun, tc.args...)
		if code != tc.code {
			t.Errorf("lokirun %s: exit %d, want %d:\n%s", strings.Join(tc.args, " "), code, tc.code, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("lokirun %s: output lacks %q:\n%s", strings.Join(tc.args, " "), w, out)
			}
		}
	}
}

// TestLokirunProgressNamesVerdict: with -progress and -v, each completed
// experiment's progress line names its verdict. A clock step mid-run
// makes the clock fit infeasible, so both experiments are discarded, and
// their progress lines must say so rather than "rejected".
func TestLokirunProgressNamesVerdict(t *testing.T) {
	lokirun := buildLokirun(t)
	doc := `{
  "name": "progress", "virtual_time": true, "workers": 1,
  "hosts": [
    {"name": "h1"},
    {"name": "h2", "offset_ns": 5000000, "drift_ppm": 80},
    {"name": "h3", "offset_ns": -2000000, "drift_ppm": -45}
  ],
  "sync": {"messages": 10, "transit": "25µs"},
  "studies": [{
    "name": "step", "app": "election",
    "nodes": [{"name": "black", "host": "h1"}, {"name": "green", "host": "h2"}, {"name": "yellow", "host": "h3"}],
    "faults": ["black step (black:ELECT) once clockstep(h2,5ms)"],
    "experiments": 2, "runfor": "80ms", "timeout": "10s"
  }]
}`
	file := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, lokirun, "-config", file, "-progress", "1h", "-v", "error")
	for i := 1; i <= 2; i++ {
		if want := fmt.Sprintf("progress: step exp %d/2 discarded\n", i); !strings.Contains(out, want) {
			t.Errorf("output lacks %q (exit %d):\n%s", want, code, out)
		}
	}
}
