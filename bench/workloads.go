package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	loki "repro"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	workload string
	seed     int64
	// seconds is how much timed work to accumulate: repeats continue until
	// their timed regions add up to it (and at least minRepeats are done).
	seconds float64
	// scale shrinks the experiment counts; results at a scale other than 1
	// are for smoke tests and are not comparable to default runs.
	scale float64
	// dir is the directory the run may write under. Everything lands in a
	// fresh subdirectory that is removed when the run ends.
	dir string
}

// minRepeats is the fewest timed repeats a run reports a median over.
const minRepeats = 3

// workloadDef is the fixed part of a workload: which file it runs and how.
type workloadDef struct {
	name string
	// virtual workloads run on the simulated clock: their verdicts and
	// simulated statistics must repeat exactly.
	virtual bool
	workers int
	// journaled workloads run with a checkpoint journal, each repeat in a
	// fresh directory.
	journaled bool
	// setups is how many times the set-up is repeated before the timed
	// phase, for the setup_s median (at -scale 1).
	setups int
	// file generates the campaign file from the seed.
	file func(seed int64, scale float64) *loki.CampaignFile
	// fixture generates a one-experiment study for Session.RunOne, from
	// which the layer spans take their record, stamps and timelines.
	fixture func(seed int64) *loki.CampaignFile
	// options are the session options the workload adds to the file.
	options func(dir string) []loki.Option
}

func checkpointOptions(dir string) []loki.Option {
	return []loki.Option{loki.WithCheckpoint(dir, false)}
}

func chaosFileScaled(seed int64, scale float64) *loki.CampaignFile {
	return chaosFile(seed, scaled(chaosSeeds, scale))
}

var workloadDefs = []*workloadDef{
	{
		name: wlVirtualElection, virtual: true, workers: 1, setups: 50,
		file: func(seed int64, scale float64) *loki.CampaignFile {
			return electionFile("bench-election", seed, electionStudies, scaled(electionPerStudy, scale), true)
		},
		fixture: func(seed int64) *loki.CampaignFile { return electionFile("bench-election", seed, 1, 1, true) },
		options: func(string) []loki.Option { return nil },
	},
	{
		name: wlJournaledChaos, virtual: true, workers: 2, journaled: true, setups: 50,
		file:    chaosFileScaled,
		fixture: chaosFixtureFile,
		options: checkpointOptions,
	},
	{
		name: wlClusterUDP, workers: 1, setups: 50,
		file: func(seed int64, scale float64) *loki.CampaignFile {
			return electionFile("bench-cluster", seed, 1, scaled(clusterExperiments, scale), false)
		},
		fixture: func(seed int64) *loki.CampaignFile { return electionFile("bench-cluster", seed, 1, 1, false) },
		options: func(string) []loki.Option { return []loki.Option{loki.WithTransport(loki.TransportUDP)} },
	},
	{
		// The set-up is a whole journaled campaign, so it is repeated fewer
		// times than the cheap ones. It writes the journal only: the
		// artifacts are first written by an untimed Resume cycle, because
		// creating 2048 new artifact directories takes anything from 0.5
		// to 3.3 s here, by the state of the filesystem and not of the
		// program, and setup_s has to hold a bound.
		name: wlResumeReport, virtual: true, workers: 2, journaled: true, setups: 3,
		file:    chaosFileScaled,
		fixture: chaosFixtureFile,
		options: checkpointOptions,
	},
}

func lookupWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// expectedExperiments is how many experiments one Run of f executes.
func expectedExperiments(f *loki.CampaignFile) int {
	n := 0
	for _, st := range f.Studies {
		n += st.Experiments
	}
	if m := f.Matrix; m != nil {
		n += len(m.Scenarios) * len(m.Latencies) * len(m.Seeds) * m.Study.Experiments
	}
	return n
}

// outcome is what the harness checks of one Run or Resume.
type outcome struct {
	attempted int
	failed    int
	accepted  int
	// verdicts has one byte per expected experiment, in study/point then
	// index order: A accepted, R rejected, F failed.
	verdicts string
}

func (o outcome) acceptedShare() float64 { return float64(o.accepted) / float64(o.attempted) }
func (o outcome) failedShare() float64   { return float64(o.failed) / float64(o.attempted) }

// summarize reduces a session result to its outcome. An experiment fails
// when its record is missing, it did not complete, or the analysis phase
// could not process it; records short of expected count as failed too.
func summarize(res *loki.SessionResult, expected int) outcome {
	var studies []*loki.StudyOutcome
	if res.Campaign != nil {
		studies = res.Campaign.Studies
	}
	if res.Matrix != nil {
		for _, p := range res.Matrix.Points {
			if p != nil && p.Study != nil {
				studies = append(studies, p.Study)
			}
		}
	}
	var v strings.Builder
	o := outcome{}
	for _, st := range studies {
		for _, rec := range st.Records {
			o.attempted++
			switch {
			case rec == nil || !rec.Completed || rec.AnalysisError != "":
				o.failed++
				v.WriteByte('F')
			case rec.Accepted:
				o.accepted++
				v.WriteByte('A')
			default:
				v.WriteByte('R')
			}
		}
	}
	for ; o.attempted < expected; o.attempted++ {
		o.failed++
		v.WriteByte('F')
	}
	o.verdicts = v.String()
	return o
}

// digest shortens a verdict vector for printing and comparing.
func digest(verdicts string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(verdicts)))[:16]
}

// runner executes one workload's runs inside a private work directory.
type runner struct {
	cfg  runConfig
	def  *workloadDef
	root string
	seq  int
	last string
	// expected is the experiment count of one Run.
	expected int
}

func newRunner(cfg runConfig) (*runner, error) {
	def := lookupWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	return &runner{cfg: cfg, def: def, root: root, expected: expectedExperiments(def.file(cfg.seed, cfg.scale))}, nil
}

func (r *runner) close() { os.RemoveAll(r.root) }

// remove deletes a directory a repeat has finished with. On journaled
// workloads the removal is followed by sync(2): without it the dirty pages
// of one repeat are written back during, and charged to, the next one.
// Never called inside a timed region.
func (r *runner) remove(dir string) error {
	err := os.RemoveAll(dir)
	if r.def.journaled {
		syscall.Sync()
	}
	return err
}

// freshDir removes the previous repeat's directory and makes a new one.
func (r *runner) freshDir() (string, error) {
	if r.last != "" {
		if err := r.remove(r.last); err != nil {
			return "", err
		}
	}
	r.seq++
	r.last = filepath.Join(r.root, fmt.Sprintf("run%03d", r.seq))
	return r.last, os.MkdirAll(r.last, 0o755)
}

// prepare is the set-up every Run needs: generate the inputs from the seed,
// write the campaign file, and Open it (parse, validate, build).
func (r *runner) prepare(dir string, extra ...loki.Option) (*loki.Session, error) {
	data, err := loki.EncodeCampaignFile(r.def.file(r.cfg.seed, r.cfg.scale))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return loki.Open(path, append(r.def.options(dir), extra...)...)
}

// setupOnly is what a -setup-only child does: everything a fresh process
// does before its first Run or Resume call. It leaves its files behind;
// the parent owns cfg.dir and removes it outside the timing.
func setupOnly(cfg runConfig) error {
	r, err := newRunner(cfg)
	if err != nil {
		return err
	}
	if r.def.name == wlResumeReport {
		_, err := r.setupResume()
		return err
	}
	dir, err := r.freshDir()
	if err != nil {
		return err
	}
	s, err := r.prepare(dir)
	if err != nil {
		return err
	}
	return s.Close()
}

// timeSetups measures setup_s as a user pays it: the life of a fresh
// process of this binary that stops where its first Run or Resume call
// would be (process start, flag parsing, prepare; on resume-report also the
// journaled campaign whose journal it resumes), timed from outside.
// Process start is a floor of a few milliseconds under the figure, so the
// bound is a share of something a user would notice.
func (r *runner) timeSetups(vals series) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.root, "setup")
	for i := 0; i < scaled(r.def.setups, r.cfg.scale); i++ {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cmd := exec.Command(exe, "-setup-only", "-workload", r.def.name, "-dir", dir,
			"-seed", fmt.Sprint(r.cfg.seed), "-scale", fmt.Sprint(r.cfg.scale))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: set-up child: %w", r.def.name, err)
		}
		vals.add("setup_s", time.Since(start).Seconds())
		if err := r.remove(dir); err != nil {
			return err
		}
	}
	return nil
}

// repeat is one timed Run with its cost and outcome.
type repeat struct {
	cost
	outcome
	journalBytes int64
}

// runOnce prepares a fresh session and times one Session.Run. extra
// options turn the observers on for the traced run; after, when non-nil,
// reads the session before it closes.
func (r *runner) runOnce(extra []loki.Option, after func(*loki.Session)) (repeat, error) {
	var rep repeat
	dir, err := r.freshDir()
	if err != nil {
		return rep, err
	}
	s, err := r.prepare(dir, extra...)
	if err != nil {
		return rep, err
	}
	defer s.Close()

	var res *loki.SessionResult
	rep.cost, err = measure(func() error {
		var err error
		res, err = s.Run(context.Background())
		return err
	})
	if err != nil {
		return rep, fmt.Errorf("%s: Run: %w", r.def.name, err)
	}
	rep.outcome = summarize(res, r.expected)
	if r.def.journaled {
		fi, err := os.Stat(filepath.Join(dir, "checkpoint.jsonl"))
		if err != nil {
			return rep, err
		}
		rep.journalBytes = fi.Size()
	}
	if after != nil {
		after(s)
	}
	return rep, nil
}

// fileDigest hashes a file's bytes.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// checkRepeat applies the output checks every Run must pass.
func (r *runner) checkRepeat(res *Result, o outcome, what string) {
	if o.attempted != r.expected {
		res.fail("%s: %d records, want %d", what, o.attempted, r.expected)
	}
	if r.def.virtual {
		if res.Verdicts == "" {
			res.Verdicts = digest(o.verdicts)
		} else if d := digest(o.verdicts); d != res.Verdicts {
			res.fail("%s: verdict vector %s differs from the first repeat's %s (virtual time must repeat exactly)", what, d, res.Verdicts)
		}
	} else if share := o.acceptedShare(); share < 0.9 {
		res.fail("%s: accepted share %.3f is below 0.9", what, share)
	}
}

func newResult(cfg runConfig, traced bool) *Result {
	return &Result{Workload: cfg.workload, Seed: cfg.seed, Traced: traced, Correct: true, Metrics: map[string]Sample{}}
}

// series accumulates per-repeat values by metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) into(res *Result) {
	for name, values := range s {
		res.set(name, values...)
	}
}

// addRun records the end-to-end figures of one timed repeat.
func (s series) addRun(c cost, o outcome) {
	n := float64(o.attempted)
	s.add("exp_per_s", n/c.wall.Seconds())
	s.add("cpu_us_per_exp", float64(c.cpu.Microseconds())/n)
	s.add("allocs_per_exp", float64(c.mallocs)/n)
	s.add("alloc_kb_per_exp", float64(c.bytes)/1024/n)
	s.add("accepted_share", o.acceptedShare())
	s.add("failed_share", o.failedShare())
}

// runUntraced is the observer-off run: the end-to-end metrics.
func (r *runner) runUntraced() (*Result, error) {
	if r.def.name == wlResumeReport {
		return r.runResumeReport(false)
	}
	res := newResult(r.cfg, false)
	vals := series{}
	if err := r.timeSetups(vals); err != nil {
		return nil, err
	}
	var timed time.Duration
	for n := 0; n < minRepeats || timed.Seconds() < r.cfg.seconds; n++ {
		rep, err := r.runOnce(nil, nil)
		if err != nil {
			return nil, err
		}
		timed += rep.wall
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		r.checkRepeat(res, rep.outcome, fmt.Sprintf("repeat %d", n+1))
		vals.addRun(rep.cost, rep.outcome)
		if r.def.journaled {
			vals.add("journal_bytes_per_exp", float64(rep.journalBytes)/float64(rep.attempted))
		}
	}
	vals.into(res)
	return res, addPeakRSS(res)
}

// addPeakRSS adds what an observer-off run measures once per process.
func addPeakRSS(res *Result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}

// resumeState is resume-report's set-up: a finished journaled campaign on
// disk, and what it looked like when it finished.
type resumeState struct {
	dir     string
	path    string
	journal string
	before  string // journal digest at the end of the set-up run
	outcome outcome
}

// setupResume runs the journaled-chaos campaign once.
func (r *runner) setupResume() (*resumeState, error) {
	dir, err := r.freshDir()
	if err != nil {
		return nil, err
	}
	s, err := r.prepare(dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out, err := s.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("%s: set-up Run: %w", r.def.name, err)
	}
	st := &resumeState{
		dir:     dir,
		path:    filepath.Join(dir, "campaign.json"),
		journal: filepath.Join(dir, "checkpoint.jsonl"),
		outcome: summarize(out, r.expected),
	}
	st.before, err = fileDigest(st.journal)
	return st, err
}

// resumeRepeat is one timed cycle of resume-report.
type resumeRepeat struct {
	cost
	outcome
	resume time.Duration // Open + Resume
	report time.Duration // GenerateReport
}

// resumeOnce times Open+Resume, Status and GenerateReport against the
// set-up's directory and checks that nothing was executed or rewritten.
func (r *runner) resumeOnce(res *Result, st *resumeState, what string, extra []loki.Option, after func(*loki.Session)) (resumeRepeat, error) {
	var rep resumeRepeat
	var (
		s      *loki.Session
		status *loki.SessionStatus
		html   string
	)
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	var err error
	rep.cost, err = measure(func() error {
		start := time.Now()
		var err error
		s, err = loki.Open(st.path, append([]loki.Option{loki.WithArtifacts(st.dir)}, extra...)...)
		if err != nil {
			return err
		}
		out, err := s.Resume(context.Background())
		if err != nil {
			return fmt.Errorf("Resume: %w", err)
		}
		rep.resume = time.Since(start)
		rep.outcome = summarize(out, r.expected)

		if status, err = s.Status(); err != nil {
			return fmt.Errorf("Status: %w", err)
		}

		start = time.Now()
		if html, err = loki.GenerateReport(st.dir); err != nil {
			return fmt.Errorf("GenerateReport: %w", err)
		}
		rep.report = time.Since(start)
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("%s: %w", r.def.name, err)
	}
	if after != nil {
		after(s)
	}

	if rep.verdicts != st.outcome.verdicts {
		res.fail("%s: resumed verdicts %s differ from the set-up run's %s", what, digest(rep.verdicts), digest(st.outcome.verdicts))
	}
	now, err := fileDigest(st.journal)
	if err != nil {
		return rep, err
	}
	if now != st.before {
		res.fail("%s: Resume changed the journal (it executed experiments or rewrote records)", what)
	}
	_, complete, accepted := status.Totals()
	if complete != r.expected || accepted != st.outcome.accepted || !status.FingerprintMatch || status.Torn {
		res.fail("%s: Status reports %d complete, %d accepted, fingerprint match %v, torn %v; want %d, %d, true, false",
			what, complete, accepted, status.FingerprintMatch, status.Torn, r.expected, st.outcome.accepted)
	}
	if fi, err := os.Stat(html); err != nil || fi.Size() == 0 {
		res.fail("%s: GenerateReport left no report at %s", what, html)
	}
	return rep, nil
}

// addResume records the end-to-end figures of one resume-report cycle. The
// shared metric names count journal records where the other workloads
// count experiments.
func (s series) addResume(rep resumeRepeat) {
	s.addRun(rep.cost, rep.outcome)
	s.add("resume_rec_per_s", float64(rep.attempted)/rep.resume.Seconds())
	s.add("report_ms", float64(rep.report.Microseconds())/1000)
}

// runResumeReport is resume-report, traced or not. The traced variant
// alternates observer-off and observer-on cycles over the same directory.
func (r *runner) runResumeReport(traced bool) (*Result, error) {
	res := newResult(r.cfg, traced)
	vals := series{}
	st, err := r.setupResume()
	if err != nil {
		return nil, err
	}
	if !traced {
		// setup_s belongs to the observer-off run. The children are timed
		// after this process's own set-up, not before it: an fsync costs
		// two to three times more on a disk that has been idle for a few
		// seconds (measured here: the same set-up takes 4.9 s cold, 1.9 to
		// 2.5 s right after another), and the set-up above is the warm-up
		// that puts all of them on the same side of that.
		if err := r.timeSetups(vals); err != nil {
			return nil, err
		}
	}
	if st.outcome.failed > 0 {
		res.fail("set-up run: %d of %d experiments failed", st.outcome.failed, st.outcome.attempted)
	}
	res.Verdicts = digest(st.outcome.verdicts)
	// Untimed: the first cycle creates the artifacts every later one
	// rewrites. Its output checks count like any other's.
	if _, err := r.resumeOnce(res, st, "first cycle", nil, nil); err != nil {
		return nil, err
	}
	fi, err := os.Stat(st.journal)
	if err != nil {
		return nil, err
	}
	vals.add("journal_bytes_per_exp", float64(fi.Size())/float64(r.expected))

	if traced {
		return res, r.traceResume(res, st)
	}
	var timed time.Duration
	for n := 0; n < minRepeats || timed.Seconds() < r.cfg.seconds; n++ {
		rep, err := r.resumeOnce(res, st, fmt.Sprintf("repeat %d", n+1), nil, nil)
		if err != nil {
			return nil, err
		}
		timed += rep.wall
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		vals.addResume(rep)
	}
	vals.into(res)
	return res, addPeakRSS(res)
}
