// Command bench is lokibench, the repository's performance ledger: one
// seeded harness, four workloads, and a traced attribution run.
//
//	go run -C bench . -seed 1 -out A.json      # every workload, each in a child process
//	go run -C bench . -compare A.json B.json   # regression table, non-zero exit on worse
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is what BENCHMARK.json's driver runs: one workload in this
// process, observers off (--trace 0, the end-to-end metrics) or on
// (--trace 1, the per-layer metrics), ending with one JSON result line.
// The harness is a module of its own (go.mod here, replacing repro with the
// parent directory), so the repository's `go build ./...` does not see it.
// README.md in this directory is the catalogue and the reading guide.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultDir keeps a default run's files inside the checkout it was
// started from (the driver's rule), under a name .gitignore lists.
const defaultDir = ".bench_build/lokibench"

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lokibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all four, each in a fresh child process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "timed work to accumulate per run, seconds")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink the experiment counts (smoke runs; not comparable to -scale 1)")
	fs.StringVar(&cfg.dir, "dir", defaultDir, "directory to work under; put it on a real disk, not tmpfs")
	setupChild := fs.Bool("setup-only", false, "with -workload: do the workload's set-up and exit (the child process setup_s times)")
	trace := fs.Int("trace", 0, "with -workload: 0 = observers off, end-to-end metrics; 1 = traced run, per-layer metrics")
	out := fs.String("out", "", "also write the results as JSON to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files, `A.json B.json`: one row per end-to-end metric and workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lokibench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || cfg.scale <= 0 || cfg.seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "lokibench: bad arguments; see -help")
		return 2
	}
	var err error
	switch {
	case *setupChild:
		err = setupOnly(cfg)
	case cfg.workload == "":
		err = runAll(stdout, stderr, cfg, *out)
	default:
		err = runOne(stdout, cfg, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lokibench:", err)
		return 1
	}
	return 0
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result.
func runOne(stdout io.Writer, cfg runConfig, traced bool, out string) error {
	r, err := newRunner(cfg)
	if err != nil {
		return err
	}
	defer r.close()
	readEnv(cfg).print(stdout)
	var res *Result
	if traced {
		res, err = r.runTraced()
	} else {
		res, err = r.runUntraced()
	}
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if traced {
		printAttribution(stdout, res, r.def)
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if !res.Correct {
		// No result line for a run whose outputs are wrong: the checks
		// are printed above and the exit code says the rest.
		return fmt.Errorf("%s: %d output check(s) failed", cfg.workload, len(res.Checks))
	}
	kind := endToEnd
	if traced {
		kind = perLayer
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, m := range metricsOf(kind) {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, m.Name)
		}
		line.Metrics[m.Name] = lineMetric{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// printResult prints every measured metric by name with its unit, median
// first, then quartiles and the number of repeats behind it.
func printResult(w io.Writer, res *Result) {
	mode := "observers off"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s): attempted %d, failed %d, verdicts %s\n", res.Workload, mode, res.Attempted, res.Failed, res.Verdicts)
	for _, m := range metricCatalogue {
		s, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s", m.Name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
		}
		if s.Note != "" {
			fmt.Fprintf(w, " (%s)", s.Note)
		}
		fmt.Fprintln(w)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// WorkloadResult pairs a workload's two runs.
type WorkloadResult struct {
	Name     string  `json:"name"`
	Untraced *Result `json:"untraced"`
	Traced   *Result `json:"traced"`
}

// File is what -out writes for a run of every workload, and what
// -compare reads.
type File struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
}

// runAll runs every workload twice — observers off, then traced — each
// run in a fresh child process of this binary, so set-up time and peak
// memory are per workload and nothing carries over between them.
func runAll(stdout, stderr io.Writer, cfg runConfig, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "results-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := File{Env: readEnv(cfg)}
	bad := 0
	for _, def := range workloadDefs {
		wr := WorkloadResult{Name: def.name}
		for trace, dst := range []**Result{&wr.Untraced, &wr.Traced} {
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", def.name, trace))
			cmd := exec.Command(exe,
				"-workload", def.name, "-trace", fmt.Sprint(trace),
				"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-scale", fmt.Sprint(cfg.scale),
				"-dir", cfg.dir, "-out", path)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			res := &Result{}
			if err := readJSON(path, res); err != nil {
				// No result at all: the child died before measuring.
				return fmt.Errorf("%s (trace %d): %v; %w", def.name, trace, runErr, err)
			}
			if runErr != nil || !res.Correct {
				bad++
			}
			*dst = res
		}
		if def.virtual && wr.Untraced.Verdicts != wr.Traced.Verdicts {
			fmt.Fprintf(stdout, "  CHECK FAILED: %s: traced run's verdicts %s differ from the observer-off run's %s\n",
				def.name, wr.Traced.Verdicts, wr.Untraced.Verdicts)
			bad++
		}
		file.Workloads = append(file.Workloads, wr)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed an output check", bad)
	}
	return nil
}
