package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	loki "repro"
)

// TestMain lets the test binary stand in for the harness's child
// processes: runAll re-executes os.Executable(), which under `go test` is
// this binary.
func TestMain(m *testing.M) {
	if os.Getenv("LOKIBENCH_TEST_CHILD") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func encode(t *testing.T, f *loki.CampaignFile) []byte {
	t.Helper()
	b, err := loki.EncodeCampaignFile(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, def := range workloadDefs {
		for name, gen := range map[string]func(int64) *loki.CampaignFile{
			"file":    func(seed int64) *loki.CampaignFile { return def.file(seed, 0.01) },
			"fixture": def.fixture,
		} {
			a, again, b := gen(7), gen(7), gen(8)
			if err := loki.ValidateCampaignFile(a); err != nil {
				t.Errorf("%s %s: generated campaign file is invalid: %v", def.name, name, err)
			}
			if !bytes.Equal(encode(t, a), encode(t, again)) {
				t.Errorf("%s %s: same seed gave different bytes", def.name, name)
			}
			if loki.CampaignFileFingerprint(a) != loki.CampaignFileFingerprint(again) {
				t.Errorf("%s %s: same seed gave different fingerprints", def.name, name)
			}
			if bytes.Equal(encode(t, a), encode(t, b)) || loki.CampaignFileFingerprint(a) == loki.CampaignFileFingerprint(b) {
				t.Errorf("%s %s: seeds 7 and 8 gave the same input", def.name, name)
			}
		}
		want := map[string]int{wlVirtualElection: 8000, wlJournaledChaos: 2048, wlClusterUDP: 60, wlResumeReport: 2048}[def.name]
		if n := expectedExperiments(def.file(1, 1)); n != want {
			t.Errorf("%s: default size is %d experiments, want %d", def.name, n, want)
		}
	}
}

func TestStatistics(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	// Expected quartiles are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 8, 2, 32},
	} {
		q1, q3 := quartiles(c.v)
		if m := median(c.v); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", c.v, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(s, 1) {
		t.Errorf("spread = %g, want 1", s)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must give 0")
	}

	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	if val, pct := tail(v); val != 990 || !near(pct, 99) {
		t.Errorf("tail of 1..1000 = %g at p%g, want 990 at p99 (ten samples beyond it)", val, pct)
	}
	if val, pct := tail(v[:15]); val != 8 || pct != 50 {
		t.Errorf("tail of 15 samples = %g at p%g, want the median", val, pct)
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, def := range workloadDefs {
		if spec.Workloads[i].Name != def.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %s", i, spec.Workloads[i], def.name)
		}
	}
	e2e := metricsOf(endToEnd)
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		if g := spec.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, g, m)
		}
	}
	layers := metricsOf(perLayer)
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range layers {
		if g := spec.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, g, m)
		}
	}
	seen := map[string]bool{}
	for _, m := range metricCatalogue {
		if seen[m.Name] {
			t.Errorf("metric %s is in the catalogue twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func sample(v, q1, q3 float64) Sample { return Sample{Value: v, Q1: q1, Q3: q3, N: 5} }

func TestJudge(t *testing.T) {
	eps, _ := lookupMetric("exp_per_s")      // higher is better, bound 25 %
	cpu, _ := lookupMetric("cpu_us_per_exp") // lower is better, bound 25 %
	acc, _ := lookupMetric("accepted_share") // exact on virtual workloads
	failed, _ := lookupMetric("failed_share")
	for _, c := range []struct {
		name       string
		m          metricDef
		workload   string
		sameInputs bool
		a, b       Sample
		want       string
	}{
		{"within bound", eps, wlVirtualElection, true, sample(4000, 3950, 4050), sample(3800, 3750, 3850), verdictUnchanged},
		{"faster is not worse", eps, wlVirtualElection, true, sample(4000, 3950, 4050), sample(6000, 5950, 6050), verdictUnchanged},
		{"slower beyond bound", eps, wlVirtualElection, true, sample(4000, 3950, 4050), sample(2800, 2750, 2850), verdictWorse},
		{"lower-is-better beyond bound", cpu, wlClusterUDP, true, sample(100, 99, 101), sample(130, 129, 131), verdictWorse},
		{"lower-is-better improved", cpu, wlClusterUDP, true, sample(100, 99, 101), sample(50, 49, 51), verdictUnchanged},
		{"spread wider than bound", eps, wlJournaledChaos, true, sample(1000, 800, 1200), sample(700, 690, 710), verdictUnresolved},
		{"exact metric moved", acc, wlVirtualElection, true, sample(1, 1, 1), sample(0.999, 0.999, 0.999), verdictWorse},
		{"exact metric equal", acc, wlVirtualElection, true, sample(0.5, 0.5, 0.5), sample(0.5, 0.5, 0.5), verdictUnchanged},
		{"exact needs same inputs", acc, wlVirtualElection, false, sample(1, 1, 1), sample(0.99, 0.99, 0.99), verdictUnchanged},
		{"bounded where not exact", acc, wlClusterUDP, true, sample(1, 1, 1), sample(0.9, 0.9, 0.9), verdictWorse},
		{"failures from zero", failed, wlClusterUDP, false, sample(0, 0, 0), sample(0.01, 0.01, 0.01), verdictWorse},
		{"no failures", failed, wlClusterUDP, false, sample(0, 0, 0), sample(0, 0, 0), verdictUnchanged},
	} {
		if got, _ := judge(c.m, c.workload, c.sameInputs, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	mk := func(eps float64, phase float64) File {
		return File{Env: Env{Seed: 1, Scale: 1}, Workloads: []WorkloadResult{{
			Name: wlVirtualElection,
			Untraced: &Result{Verdicts: "v", Metrics: map[string]Sample{
				"exp_per_s": sample(eps, eps-10, eps+10), "failed_share": sample(0, 0, 0),
			}},
			Traced: &Result{Metrics: map[string]Sample{"campaign.phase.sync_us_per_exp": sample(phase, phase, phase)}},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, f File) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(4000, 16640))
	for _, c := range []struct {
		name string
		b    File
		code int
		want string
	}{
		{"same", mk(4010, 16640), 0, "unchanged"},
		{"slower", mk(2800, 16640), 1, "worse"},
		{"simulated statistic moved", mk(4000, 16641), 1, "campaign.phase.sync_us_per_exp"},
	} {
		var out, errs bytes.Buffer
		code := realMain([]string{"-compare", base, write("b.json", c.b)}, &out, &errs)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d, and %q in:\n%s%s", c.name, code, c.code, c.want, out.String(), errs.String())
		}
	}
	var out, errs bytes.Buffer
	if code := realMain([]string{"-compare", base}, &out, &errs); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}

// gitStatus returns `git status --porcelain` of the repository, or false
// when this is not a git checkout (the benchmark driver's is not).
func gitStatus(t *testing.T) (string, bool) {
	t.Helper()
	out, err := exec.Command("git", "-C", "..", "status", "--porcelain").Output()
	if err != nil {
		return "", false
	}
	return string(out), true
}

// TestSmokeEveryWorkload runs the default mode — all four workloads, each
// observers-off then traced, each in a child process — at one hundredth of
// the default size, and checks that every catalogue metric is reported and
// that nothing tracked by git was written.
func TestSmokeEveryWorkload(t *testing.T) {
	before, isRepo := gitStatus(t)
	t.Setenv("LOKIBENCH_TEST_CHILD", "1")
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.json")
	var out, errs bytes.Buffer
	start := time.Now()
	code := realMain([]string{"-seed", "3", "-scale", "0.01", "-seconds", "0.05", "-dir", filepath.Join(dir, "work"), "-out", outPath}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
	}
	if took := time.Since(start); took > 5*time.Second {
		// Reported, not failed: the limit is a budget for tier-1's
		// run time and a loaded machine is not a bug.
		t.Logf("smoke run took %v, over the 5 s budget", took)
	}
	var file File
	if err := readJSON(outPath, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.Seed != 3 || file.Env.GoVersion == "" || file.Env.NumCPU == 0 || file.Env.Filesystem == "" || file.Env.Kernel == "" || file.Env.Commit == "" {
		t.Errorf("result header is incomplete: %+v", file.Env)
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in the result, want %d", len(file.Workloads), len(workloadDefs))
	}
	for _, wr := range file.Workloads {
		if !wr.Untraced.Correct || !wr.Traced.Correct || wr.Untraced.Failed != 0 || wr.Untraced.Attempted == 0 {
			t.Errorf("%s: untraced %+v traced %+v", wr.Name, wr.Untraced.Checks, wr.Traced.Checks)
		}
		for _, m := range metricsOf(endToEnd) {
			if s, ok := wr.Untraced.Metrics[m.Name]; !ok || s.Value <= 0 || s.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", wr.Name, m.Name, s, m.Unit)
			}
		}
		for _, m := range metricsOf(perLayer) {
			if s, ok := wr.Traced.Metrics[m.Name]; !ok || s.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing from the traced run (%+v)", wr.Name, m.Name, s)
			}
		}
		if wr.Name == wlResumeReport {
			for _, name := range []string{"resume_rec_per_s", "report_ms", "journal_bytes_per_exp"} {
				if wr.Untraced.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s not reported", wr.Name, name)
				}
			}
		}
	}
	// Each child ends with the driver's result line.
	lines := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rl resultLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil || !rl.Correct || rl.Attempted < 1 || len(rl.Metrics) == 0 {
			t.Errorf("bad result line %q: %v", line, err)
		}
		lines++
	}
	if want := 2 * len(workloadDefs); lines != want {
		t.Errorf("%d result lines, want %d", lines, want)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "work")); err != nil || len(entries) != 0 {
		t.Errorf("work directory not cleaned up: %v %v", entries, err)
	}
	if after, _ := gitStatus(t); isRepo && after != before {
		t.Errorf("the run changed the working tree:\nbefore:\n%safter:\n%s", before, after)
	}
}

// TestBrokenJournalFailsTheRun truncates the journal between
// resume-report's set-up and its timed phase: Resume then re-executes the
// lost experiments, which the output checks must catch.
func TestBrokenJournalFailsTheRun(t *testing.T) {
	r, err := newRunner(runConfig{workload: wlResumeReport, seed: 5, scale: 0.01, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	st, err := r.setupResume()
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(r.cfg, false)
	if _, err := r.resumeOnce(res, st, "intact", nil, nil); err != nil || !res.Correct {
		t.Fatalf("intact journal: err %v, checks %v", err, res.Checks)
	}
	fi, err := os.Stat(st.journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.journal, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.resumeOnce(res, st, "truncated", nil, nil); err == nil && res.Correct {
		t.Fatal("a truncated journal passed the output checks")
	}
	t.Logf("checks: %v (err %v)", res.Checks, err)
}

func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	var out, errs bytes.Buffer
	if code := realMain([]string{"-workload", "nope", "-dir", t.TempDir()}, &out, &errs); code == 0 {
		t.Error("unknown workload: exit 0")
	}
	if code := realMain([]string{"-trace", "2"}, &out, &errs); code != 2 {
		t.Errorf("-trace 2: exit %d, want 2", code)
	}
}
