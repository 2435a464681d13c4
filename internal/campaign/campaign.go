// Package campaign orchestrates Loki's full evaluation pipeline (thesis
// §2.3, Fig. 2.1): for each experiment of each study, the runtime phase
// (with synchronization-message mini-phases before and after), then the
// analysis phase (off-line clock synchronization, global timeline
// construction, conservative injection checking, and discarding of
// experiments with incorrect injections), leaving the accepted global
// timelines ready for the measure estimation phase (internal/measure).
package campaign

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// HostDef is one virtual host with its hidden clock error.
type HostDef struct {
	Name  string
	Clock vclock.ClockConfig
}

// Study is one study of a campaign (§2.2.3): a set of node definitions
// with their fault specifications, a node file for placement, and an
// experiment count. It is a description: its nodes carry no application,
// and a testbed builds its own with NewApp each time it runs the study.
type Study struct {
	Name string
	// Nodes defines every state machine that can run (§3.8), without App.
	Nodes []core.NodeDef
	// NewApp builds node nick's application for point p (a plain study's is
	// Point{Seed: ChaosSeed}): once per node per study or point that a
	// testbed runs, as the testbed is bound to it, possibly concurrently
	// with other testbeds. A cluster member runs only the nodes placed on
	// hosts it owns.
	NewApp func(p Point, nick string) (core.App, error)
	// Placement assigns auto-start nodes to hosts (the node file).
	Placement []spec.NodeEntry
	// Experiments is how many instances to run (default 1).
	Experiments int
	// Timeout aborts hung experiments (default 5 s).
	Timeout time.Duration
	// Restarts configures the supervisor that restarts crashed nodes
	// during an experiment (nil: crashed nodes stay down).
	Restarts *RestartPolicy
	// ChaosSeed seeds the randomness of built-in chaos actions (fault
	// entries with an action call). A chaos engine is attached to every
	// worker runtime whenever any node carries such a fault; the seed is
	// re-applied at each experiment reset, so every experiment faces an
	// identically seeded network.
	ChaosSeed int64
	// Transport selects how the study's hosts talk: "" or "inproc" keeps
	// every host in one runtime on the in-memory bus and uses the
	// campaign's worker pool; "udp" or "tcp" runs the study clustered —
	// one runtime per host, one endpoint per runtime, every cross-host
	// message over a real loopback socket (cluster_*.go). Socket studies
	// run their experiments sequentially (one runtime set per process),
	// so Campaign.Workers does not apply to them.
	Transport string
}

// Campaign is a full fault injection campaign (§2.2.3).
type Campaign struct {
	Name    string
	Hosts   []HostDef
	Studies []*Study
	// Workers is the number of concurrent experiment executors per study.
	// Each worker owns its own core.Runtime and virtual-host set, so
	// experiments never share mutable runtime state; results land at their
	// experiment index regardless of completion order. Zero defaults to
	// GOMAXPROCS. Under VirtualTime a matrix whose points each get one
	// worker (Workers at most the number of points) journals byte for byte
	// the same at any such count, since each point runs on one testbed
	// rewound to a fresh one's state (TestReusedTestbedMatchesFresh). A
	// study, or a point given several workers, does so only at Workers 1:
	// a worker's virtual clock keeps running across its experiments, so a
	// record depends on which worker ran it and what it ran before.
	Workers int
	// Runtime tunes the core runtime (delays, watchdog). If Runtime.Source
	// is nil, each worker's host clocks read that worker's runtime clock,
	// as they always do under VirtualTime; a Source supplied for a
	// real-time campaign is shared by all workers and must be safe for
	// concurrent use.
	Runtime core.Config
	// Sync configures the clock synchronization mini-phases.
	Sync SyncConfig
	// Check configures the analysis-phase strictness.
	Check analysis.CheckOptions
	// Checkpoint, when non-nil, journals every completed experiment
	// record to Checkpoint.Dir and — with Checkpoint.Resume — skips the
	// journaled records on restart, resuming at the first missing
	// point/experiment (checkpoint.go).
	Checkpoint *Checkpoint
	// VirtualTime runs every inproc study against a per-worker
	// virtual-time scheduler (internal/clock.Virtual) instead of the wall
	// clock: sleeps, fault windows, and timeouts complete instantly while
	// the sync mini-phases keep their exact timing geometry. Requires the
	// inproc transport — socket studies and clusters stay real-time — and is
	// part of the journal fingerprint: virtual and real records never mix.
	VirtualTime bool
	// Obs, when non-nil, wires the observability sink into every engine:
	// per-experiment traces (Obs.TraceDir), engine metrics (Obs.Metrics),
	// live progress events (Obs.Watch), and structured diagnostics
	// (Obs.Log). Nil disables all of it at zero cost on the hot paths; the
	// sink is deliberately excluded from the checkpoint fingerprint, so
	// resuming with observability toggled reuses the journal.
	Obs *obs.Sink

	// point, set on the per-point campaigns the matrix engine derives,
	// names traces and progress events even when the study has its own
	// Name, and is what testbeds running it build their applications for.
	point *Point
	// single, set on the campaign RunSingle derives, runs one experiment
	// per study and keeps its raw artifacts in the record.
	single bool
}

// ExperimentRecord is everything one experiment produced — the unit the
// checkpoint journal stores, as it stands, in the bytes json.Marshal writes
// for it (the journal's own encoder, appendRecord, writes the same bytes):
// map keys sorted and the timelines in their text formats (§5.7, §3.5.6),
// so equal records serialize to equal bytes. Field order and tags are the
// journal format; reordering them rewrites every journal, and the journal's
// encoder and strict decoder with it.
type ExperimentRecord struct {
	Study     string
	Index     int
	Completed bool // false: timed out and was aborted
	// Accepted experiments (completed, all injections provably correct)
	// feed measure estimation (§2.6).
	Accepted bool
	Outcomes map[string]string           `json:",omitempty"`
	Bounds   map[string]clocksync.Bounds `json:",omitempty"`
	Global   *analysis.Global            `json:",omitempty"`
	Report   *analysis.Report            `json:",omitempty"`
	// AnalysisError, when non-empty, says why the analysis phase could
	// not process the experiment at all — e.g. infeasible clock
	// synchronization after a clockstep fault. Such experiments are
	// discarded (Accepted false), not fatal: rejecting unverifiable runs
	// is the analysis phase's job.
	AnalysisError string `json:",omitempty"`
	// ClockStepSuspected refines an infeasible clock fit: the two sync
	// mini-phases each admit an affine model on their own, but at least
	// one host's models disagree beyond tolerance — the signature of a
	// mid-experiment clock step rather than generally bad timestamps.
	// The experiment stays discarded; the verdict says *why*.
	ClockStepSuspected bool `json:",omitempty"`
	// ClockStepHosts lists the hosts whose mini-phases disagree, sorted.
	ClockStepHosts []string `json:",omitempty"`
	// ClockStepBounds bounds each suspected host's step magnitude from
	// the two per-phase convex-hull fits: the true step Δ satisfies
	// Δ ∈ [postAlphaLo − preAlphaHi, postAlphaHi − preAlphaLo], because
	// each phase's alpha interval rigorously contains that phase's true
	// offset at the stamps' midpoint. Keyed like ClockStepHosts.
	ClockStepBounds map[string]StepBound `json:",omitempty"`
	// Locals and Stamps are the raw runtime artifacts — the local
	// timelines and the stamped synchronization messages of both
	// mini-phases — which only a one-experiment run (RunSingle, lokirun runtime)
	// keeps, so that a resumed run can rewrite its artifact files without
	// executing anything.
	Locals []*timeline.Local          `json:",omitempty"`
	Stamps []clocksync.StampedMessage `json:",omitempty"`
}

// StepBound is a rigorous interval (in reference-clock nanoseconds) on a
// suspected mid-experiment clock step's magnitude.
type StepBound struct {
	Lo vclock.Ticks
	Hi vclock.Ticks
}

// StudyResult aggregates a study's experiments.
type StudyResult struct {
	Name    string
	Records []*ExperimentRecord
}

// AcceptedGlobals returns the global timelines of accepted experiments —
// the input to measure.StudyMeasure.ApplyAll. It is nil-receiver safe, so
// Result.Study("missing").AcceptedGlobals() is an empty slice, not a panic.
func (s *StudyResult) AcceptedGlobals() []*analysis.Global {
	if s == nil {
		return nil
	}
	out := make([]*analysis.Global, 0, len(s.Records))
	for _, r := range s.Records {
		if r != nil && r.Accepted {
			out = append(out, r.Global)
		}
	}
	return out
}

// AcceptanceRate is the fraction of experiments that survived analysis.
// A nil receiver (missing study) rates 0.
func (s *StudyResult) AcceptanceRate() float64 {
	if s == nil || len(s.Records) == 0 {
		return 0
	}
	n := 0
	for _, r := range s.Records {
		if r != nil && r.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(s.Records))
}

// Result is a campaign's complete output.
type Result struct {
	Name    string
	Studies []*StudyResult
	// JournalOnly holds the verdicts of the records a resumed journal
	// keeps that this run did not cover (see MatrixResult.JournalOnly).
	JournalOnly []RecordSummary
}

// Study returns the named study's results, or nil.
func (r *Result) Study(name string) *StudyResult {
	for _, s := range r.Studies {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Validate is the one owner of every rule about a campaign the engines can
// run. Run (m nil) and RunMatrix (m the matrix, c.Studies ignored) call it
// before a journal is opened or an experiment runs, and loki.Open calls it
// once every option is applied; no other layer restates these rules. It
// checks:
//
//   - hosts: at least one, each named, no name twice;
//   - the campaign's Workers: not negative (0 means GOMAXPROCS);
//   - studies: at least one, no name twice, and every study passes
//     checkStudy;
//   - a matrix: a template Study, no point name twice, and every
//     scenario's overlay of the template (Matrix.scenarioStudies) passes
//     checkStudy. A point's study is its scenario's overlay with the
//     point's seed and name, so this checks every point before anything
//     runs.
//
// checkStudy is the study check: Experiments positive, a known transport,
// virtual time only over inproc, a NewApp and nodes without App, and every
// fault with an expression and, for an action, a valid call naming known
// hosts.
func Validate(c *Campaign, m *Matrix) error {
	_, err := validate(c, m)
	return err
}

// expansion is a matrix expanded once for a call: its points, their
// names by index (Point.Name), and its checked scenario studies.
type expansion struct {
	pts      []Point
	names    []string
	overlays []*Study
}

// validate is Validate, returning a matrix's expansion.
func validate(c *Campaign, m *Matrix) (expansion, error) {
	if m == nil && len(c.Studies) == 0 {
		return expansion{}, fmt.Errorf("campaign: no studies defined")
	}
	if len(c.Hosts) == 0 {
		return expansion{}, fmt.Errorf("campaign: no hosts defined")
	}
	seen := make(map[string]bool, len(c.Hosts))
	for i, h := range c.Hosts {
		if h.Name == "" {
			return expansion{}, fmt.Errorf("campaign: host %d has no name", i)
		}
		if seen[h.Name] {
			return expansion{}, fmt.Errorf("campaign: duplicate host %q", h.Name)
		}
		seen[h.Name] = true
	}
	// Zero means GOMAXPROCS; a negative count is a sign bug in the
	// caller's pool arithmetic, not a request.
	if c.Workers < 0 {
		return expansion{}, fmt.Errorf("campaign: Workers is %d; it must be positive, or 0 for GOMAXPROCS", c.Workers)
	}
	// Duplicate names would shadow each other in Result.Study or
	// MatrixResult.Point and collide in the checkpoint journal's record
	// keys.
	names := make(map[string]bool)
	if m != nil {
		x := expansion{pts: m.Points()}
		x.names = make([]string, len(x.pts))
		for i := range x.pts {
			name := x.pts[i].Name()
			if names[name] {
				return expansion{}, fmt.Errorf("campaign: matrix %q: duplicate point name %q (duplicate scenario/latency names or repeated seeds)", m.Name, name)
			}
			names[name], x.names[i] = true, name
		}
		var err error
		x.overlays, err = m.scenarioStudies(c, x.pts)
		return x, err
	}
	for _, st := range c.Studies {
		if names[st.Name] {
			return expansion{}, fmt.Errorf("campaign: duplicate study name %q", st.Name)
		}
		names[st.Name] = true
		if err := checkStudy(c, st); err != nil {
			return expansion{}, fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
	}
	return expansion{}, nil
}

// checkStudy is the study check Validate documents. Its errors do not name
// the study; the caller does, once.
func checkStudy(c *Campaign, st *Study) error {
	if st.Experiments <= 0 {
		return fmt.Errorf("Experiments is %d; it must be positive", st.Experiments)
	}
	if !transport.ValidKind(st.Transport) {
		return fmt.Errorf("unknown transport %q (want inproc, udp, or tcp)", st.Transport)
	}
	// The virtual scheduler owns every wait in the process, which a real
	// loopback socket (or a peer lokirun process) cannot take part in.
	if c.VirtualTime && clustered(st) {
		return fmt.Errorf("virtual time requires the inproc transport, not %q", st.Transport)
	}
	// A study is a description a testbed builds its own applications from
	// each time it runs it; an instance in it would be shared by all of
	// them.
	if st.NewApp == nil {
		return fmt.Errorf("no NewApp to build its applications")
	}
	// A fault with no expression (Go wiring can make one) would crash the
	// runtime.
	for _, def := range st.Nodes {
		if def.App != nil {
			return fmt.Errorf("node %q carries an App; a study builds its applications with NewApp", def.Nickname)
		}
		for _, f := range def.Faults {
			if f.Expr == nil {
				return fmt.Errorf("node %q fault %q has no expression", def.Nickname, f.Name)
			}
		}
	}
	if !chaos.HasActionFaults(st.Nodes) {
		return nil
	}
	hosts := make([]string, len(c.Hosts)) // which chaos actions may name
	for i, h := range c.Hosts {
		hosts[i] = h.Name
	}
	return chaos.ValidateSpecs(st.Nodes, hosts)
}

// onCancel runs fn (once) when ctx is cancelled. The returned stop
// function joins the watcher, guaranteeing fn either already ran or never
// will — the happens-before edge the callers need before reading state fn
// writes.
func onCancel(ctx context.Context, fn func()) (stop func()) {
	stopCh := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			fn()
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-exited
	}
}

// Run executes the campaign: every experiment of every study, runtime
// phase through analysis phase, one study after another (runPipeline). When
// ctx is cancelled, no further experiments are dispatched, in-flight ones
// drain (clustered studies are quit at the protocol level), and the first
// error returned is ctx.Err().
func Run(ctx context.Context, c *Campaign) (_ *Result, err error) {
	if err := Validate(c, nil); err != nil {
		return nil, err
	}
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	pl := newPool(c)
	defer pl.close()
	res := &Result{Name: c.Name}
	for _, st := range c.Studies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		units := make([]unit, 1)
		units[0].set(c, st, j.study("", st, st.Name), "")
		if _, err := runPipeline(ctx, units, poolWidth(c), pl.open, pl); err != nil {
			return nil, fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
		res.Studies = append(res.Studies, &StudyResult{Name: st.Name, Records: units[0].records})
	}
	res.JournalOnly = j.journalOnly()
	return res, nil
}

// clustered reports whether the study's Transport selects the clustered
// engine: "" or "inproc" keeps every host in one runtime on the in-memory
// bus with the campaign's worker pool; socket kinds run one runtime per
// host, every cross-host message over a real loopback socket, experiments
// in sequence.
func clustered(st *Study) bool { return st.Transport != "" && st.Transport != "inproc" }

// single derives the campaign RunSingle runs: the first study only, one
// experiment of it, its record keeping the raw runtime artifacts. The study
// itself is not rewritten — the pipeline clips the count — so the journal key
// and the study fingerprint are those of the configured study, and a
// journal written by a one-experiment run resumes whatever Experiments says.
func single(c *Campaign) *Campaign {
	sc := *c
	sc.single = true
	sc.Studies = c.Studies[:min(1, len(c.Studies))]
	return &sc
}

// experimentCount is how many experiments of the study the campaign runs.
func experimentCount(c *Campaign, st *Study) int {
	if c.single && st.Experiments > 1 {
		return 1
	}
	return st.Experiments
}

// RunSingle is Run of exactly one experiment of the campaign's first study,
// whose record (Studies[0].Records[0]) additionally carries the raw runtime
// artifacts: the local timelines and the stamped synchronization messages
// of both mini-phases.
// The file-oriented tools (lokirun runtime) emit the §3.5.6 and timestamp files
// from them. Everything Run says holds: the study's Transport picks the
// engine, a journaled record — artifacts included — is returned without
// executing, and a cancelled ctx surfaces as ctx.Err().
func RunSingle(ctx context.Context, c *Campaign) (*Result, error) {
	return Run(ctx, single(c))
}

// analyzer is one analysis worker's scratch: the clock fits' and the
// global timeline's and injection check's, kept from one experiment to the
// next. What the worker's records keep is allocated fresh.
type analyzer struct {
	est clocksync.Estimator
	chk analysis.Checker
}

// analyzeExperiment is the analysis phase for one experiment: off-line
// clock synchronization, projection onto the global timeline, conservative
// injection checking (§2.5). It touches no runtime state, which is what
// lets it run concurrently with later experiments' runtime phases. Around
// the analysis proper it settles the experiment's observability: the
// verdict counters, the analyze/verdict trace entries, and the trace
// artifact itself.
func analyzeExperiment(c *Campaign, st *Study, raw *rawExperiment, an *analyzer) (*ExperimentRecord, error) {
	cm := c.Obs.CampaignMetrics()
	var wall time.Time
	if cm != nil {
		wall = obs.Now()
	}
	rec, err := analyzeExperimentRecord(c, st, raw, an)
	if err != nil {
		return rec, err
	}
	if c.single {
		rec.Locals, rec.Stamps = raw.locals, raw.stamps
	}
	if cm != nil {
		// Analysis latency is an operational signal, so it is wall-clock
		// even under virtual time (analysis runs off the simulated clock's
		// schedule entirely).
		cm.AnalyzeSeconds.ObserveSince(wall)
		counters := [...]*obs.Counter{Aborted: cm.Aborted, Discarded: cm.Discarded, Rejected: cm.Rejected, Accepted: cm.Accepted}
		counters[rec.Verdict()].Inc()
	}
	if tr := raw.trace; tr != nil {
		// The analyze span and verdict event reuse the runtime phase's
		// final clock reading (see rawExperiment.traceEnd): zero duration,
		// but deterministic — the analysis goroutine must not read a
		// virtual clock it does not drive.
		tr.Span("analyze", raw.traceEnd, raw.traceEnd)
		tr.Event(raw.traceEnd, obs.CatVerdict, rec.Verdict().String(), rec.AnalysisError)
		if err := c.Obs.WriteTrace(tr); err != nil {
			c.Obs.Logf(obs.Warn, "campaign", "trace %s/%d: %v", tr.Point, tr.Index, err)
		}
	}
	return rec, nil
}

// analyzeExperimentRecord is the analysis phase proper.
func analyzeExperimentRecord(c *Campaign, st *Study, raw *rawExperiment, an *analyzer) (*ExperimentRecord, error) {
	rec := &ExperimentRecord{
		Study:     st.Name,
		Index:     raw.index,
		Completed: raw.completed,
		Outcomes:  raw.outcomes,
	}
	if !rec.Completed {
		// Aborted experiments are discarded outright (§3.5.1).
		return rec, nil
	}
	if raw.syncError != "" {
		rec.AnalysisError = raw.syncError
		return rec, nil
	}
	if len(raw.lostTimelines) > 0 {
		// A machine missing from the global timeline cannot have its
		// injections checked; accepting would be unsound.
		rec.AnalysisError = fmt.Sprintf("timelines not collected for %v", raw.lostTimelines)
		return rec, nil
	}
	bounds, err := an.est.EstimateAll(raw.stamps, raw.ref)
	if err != nil {
		// Infeasible synchronization — a stepped or otherwise non-affine
		// clock — means nothing about this run can be verified: discard
		// it, as the analysis phase discards unprovable injections. But
		// say why when the evidence allows: if each mini-phase admits an
		// affine fit on its own and the fits disagree, the clock stepped
		// mid-experiment (§2.5's linear-drift assumption was violated
		// between the phases, not within them).
		rec.AnalysisError = fmt.Sprintf("clock sync: %v", err)
		rec.ClockStepHosts, rec.ClockStepBounds = clockStepHosts(raw, &an.est)
		rec.ClockStepSuspected = len(rec.ClockStepHosts) > 0
		return rec, nil
	}
	rec.Bounds = bounds
	g, err := an.chk.Build(raw.ref, bounds, raw.locals)
	if err != nil {
		rec.AnalysisError = fmt.Sprintf("global timeline: %v", err)
		return rec, nil
	}
	rec.Global = g
	rec.Report = an.chk.Check(g, an.chk.SpecsFromLocals(raw.locals), c.Check)
	rec.Accepted = rec.Report.Accepted
	return rec, nil
}

// clockStepHosts fits each sync mini-phase separately and returns the
// hosts whose per-phase (alpha, beta) bound boxes are disjoint in alpha —
// hosts whose clock apparently jumped between the phases — along with a
// rigorous interval on each step's magnitude. Empty when either phase
// fails to fit on its own (then the timestamps are bad in a way a step
// cannot explain).
//
// Both phases are fitted with every reading measured from the midpoint of
// the experiment's stamps, so alpha is the offset at that instant, not at
// the time base's epoch. A phase's slope uncertainty then widens its alpha
// interval by half the experiment's span, however far the epoch lies
// behind (process uptime on the wall clock, earlier experiments in
// simulated time).
func clockStepHosts(raw *rawExperiment, est *clocksync.Estimator) ([]string, map[string]StepBound) {
	preStamps, postStamps := raw.stamps[:raw.pre], raw.stamps[raw.pre:]
	mid := stampsMidpoint(preStamps, postStamps)
	pre, err := est.EstimateAll(shiftStamps(preStamps, mid), raw.ref)
	if err != nil {
		return nil, nil
	}
	post, err := est.EstimateAll(shiftStamps(postStamps, mid), raw.ref)
	if err != nil {
		return nil, nil
	}
	var hosts []string
	var bounds map[string]StepBound
	for h, pb := range pre {
		qb, ok := post[h]
		if !ok {
			continue
		}
		// The alpha intervals are rigorous per-phase bounds: an affine
		// clock's true alpha lies in both, so disjoint intervals prove no
		// single affine model spans the experiment.
		if qb.AlphaLo > pb.AlphaHi || qb.AlphaHi < pb.AlphaLo {
			hosts = append(hosts, h)
			// The step moved the offset from somewhere in the pre interval
			// to somewhere in the post interval, so its magnitude is
			// bracketed by the extreme differences (floored/ceiled to keep
			// the interval conservative in Ticks).
			if bounds == nil {
				bounds = make(map[string]StepBound)
			}
			bounds[h] = StepBound{
				Lo: vclock.Ticks(math.Floor(qb.AlphaLo - pb.AlphaHi)),
				Hi: vclock.Ticks(math.Ceil(qb.AlphaHi - pb.AlphaLo)),
			}
		}
	}
	sort.Strings(hosts)
	return hosts, bounds
}

// stampsMidpoint returns the reading halfway between the earliest and the
// latest reading in the two mini-phases.
func stampsMidpoint(pre, post []clocksync.StampedMessage) vclock.Ticks {
	lo, hi := vclock.Ticks(math.MaxInt64), vclock.Ticks(math.MinInt64)
	for _, ms := range [2][]clocksync.StampedMessage{pre, post} {
		for _, m := range ms {
			lo, hi = min(lo, m.SendTime, m.RecvTime), max(hi, m.SendTime, m.RecvTime)
		}
	}
	if lo > hi {
		return 0
	}
	return lo + (hi-lo)/2
}

// shiftStamps returns a copy of msgs with every reading measured from
// origin. Subtracting one constant from both clocks' readings keeps each
// phase's affine geometry and moves alpha to the offset at origin.
func shiftStamps(msgs []clocksync.StampedMessage, origin vclock.Ticks) []clocksync.StampedMessage {
	out := make([]clocksync.StampedMessage, len(msgs))
	for i, m := range msgs {
		m.SendTime -= origin
		m.RecvTime -= origin
		out[i] = m
	}
	return out
}
