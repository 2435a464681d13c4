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
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// HostDef is one virtual host with its hidden clock error.
type HostDef struct {
	Name  string
	Clock vclock.ClockConfig
}

// Study is one study of a campaign (§2.2.3): a set of node definitions
// with their fault specifications, a node file for placement, and an
// experiment count.
type Study struct {
	Name string
	// Nodes defines every state machine that can run (§3.8).
	Nodes []core.NodeDef
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
	// Workers, when positive, overrides Campaign.Workers for this study.
	// Virtual-time studies often pin Workers=1 for strictly serialized —
	// and therefore byte-reproducible — execution, while real-time studies
	// in the same campaign fan out.
	Workers int
}

// Campaign is a full fault injection campaign (§2.2.3).
type Campaign struct {
	Name    string
	Hosts   []HostDef
	Studies []*Study
	// Workers is the number of concurrent experiment executors per study.
	// Each worker owns its own core.Runtime and virtual-host set, so
	// experiments never share mutable runtime state; results land at their
	// experiment index regardless of completion order. Zero or negative
	// defaults to GOMAXPROCS.
	Workers int
	// Runtime tunes the core runtime (delays, watchdog). If Runtime.Source
	// is nil each worker gets its own SystemSource; a supplied Source is
	// shared by all workers and must be safe for concurrent use.
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
	// inproc transport — socket studies and lokid stay real-time — and is
	// part of the journal fingerprint: virtual and real records never mix.
	VirtualTime bool
	// Obs, when non-nil, wires the observability sink into every engine:
	// per-experiment traces (Obs.TraceDir), engine metrics (Obs.Metrics),
	// live progress events (Obs.Watch), and structured diagnostics
	// (Obs.Log). Nil disables all of it at zero cost on the hot paths; the
	// sink is deliberately excluded from the checkpoint fingerprint, so
	// resuming with observability toggled reuses the journal.
	Obs *obs.Sink

	// matrixPoint, set on the per-point campaigns the matrix engine
	// derives, names the point for traces and progress events even when
	// the built study carries its own Name and no journal is attached.
	matrixPoint string
	// single, set on the campaign RunSingle derives, runs one experiment
	// per study and keeps its raw artifacts in the record.
	single bool
}

// ExperimentRecord is everything one experiment produced — the unit the
// checkpoint journal stores, marshalled as it stands: json.Marshal sorts map
// keys and the timelines marshal to their text formats (§5.7, §3.5.6), so
// equal records serialize to equal bytes. Field order and tags are the
// journal format; reordering them rewrites every journal.
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
	// offset. Keyed like ClockStepHosts.
	ClockStepBounds map[string]StepBound `json:",omitempty"`
	// Locals and Stamps are the raw runtime artifacts — the local
	// timelines and the stamped synchronization messages of both
	// mini-phases — which only a one-experiment run (RunSingle, cmd/lokid)
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

// ValidateWorkers rejects a negative worker-pool size. Zero means "default
// to GOMAXPROCS" and stays legal; a negative count was previously clamped
// silently, hiding sign bugs in callers' pool arithmetic.
func ValidateWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("campaign: Workers is %d; it must be positive, or 0 for GOMAXPROCS", workers)
	}
	return nil
}

// ValidateExperiments rejects a non-positive experiment count up front. A
// study that says how many experiments to run must say a positive number;
// the old silent default of 1 hid dropped configuration.
func ValidateExperiments(study string, experiments int) error {
	if experiments <= 0 {
		return fmt.Errorf("campaign: study %q: Experiments is %d; it must be positive", study, experiments)
	}
	return nil
}

// Validate checks, before any experiment runs, what Run (m nil) or
// RunMatrix (m the matrix, c.Studies ignored) can know up front: hosts
// present, worker counts sane, study or point names unique, no virtual time
// over a socket transport. Both engines call it and so does loki.Open.
// Experiment counts — and a matrix point's transport, known only once the
// point is built — are checked where a study starts (runStudyOn, runStudy).
func Validate(c *Campaign, m *Matrix) error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("campaign: no hosts defined")
	}
	if err := ValidateWorkers(c.Workers); err != nil {
		return err
	}
	// Duplicate names would shadow each other in Result.Study or
	// MatrixResult.Point and collide in the checkpoint journal's record
	// keys.
	names := make(map[string]bool)
	if m != nil {
		for _, p := range m.Points() {
			if names[p.Name()] {
				return fmt.Errorf("campaign: matrix %q: duplicate point name %q (duplicate scenario/latency names or repeated seeds)", m.Name, p.Name())
			}
			names[p.Name()] = true
		}
		return nil
	}
	if len(c.Studies) == 0 {
		return fmt.Errorf("campaign: no studies defined")
	}
	for _, st := range c.Studies {
		if names[st.Name] {
			return fmt.Errorf("campaign: duplicate study name %q", st.Name)
		}
		names[st.Name] = true
		if err := ValidateWorkers(st.Workers); err != nil {
			return fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
		if err := validateVirtualTransport(c, st); err != nil {
			return err
		}
	}
	return nil
}

// validateVirtualTransport rejects virtual time over socket transports:
// the virtual scheduler owns every wait in the process, which a real
// loopback socket (or a peer lokid process) cannot participate in.
func validateVirtualTransport(c *Campaign, st *Study) error {
	if c.VirtualTime && clustered(st) {
		return fmt.Errorf("campaign: study %q: virtual time requires the inproc transport, not %q", st.Name, st.Transport)
	}
	return nil
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
// phase through analysis phase. When ctx is cancelled, no further
// experiments are dispatched, in-flight experiments drain (a runtime phase
// is never interrupted mid-experiment; clustered studies are quit at the
// protocol level), and the first error returned is ctx.Err().
func Run(ctx context.Context, c *Campaign) (_ *Result, err error) {
	if err := Validate(c, nil); err != nil {
		return nil, err
	}
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	res := &Result{Name: c.Name}
	for _, st := range c.Studies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr, err := runStudyOn(ctx, c, st, j.study(c, st, st.Name))
		if err != nil {
			return nil, fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
		res.Studies = append(res.Studies, sr)
	}
	return res, nil
}

// clustered reports whether the study's Transport selects the clustered
// engine: "" or "inproc" keeps every host in one runtime on the in-memory
// bus with the campaign's worker pool; socket kinds run one runtime per
// host, every cross-host message over a real loopback socket, experiments
// in sequence.
func clustered(st *Study) bool { return st.Transport != "" && st.Transport != "inproc" }

// runStudyOn dispatches a study to the testbed its Transport selects.
// RunMatrix routes its points through here too, so a requested transport
// is never silently downgraded (and a point's transport, unknown until the
// point is built, meets the virtual-time rule here).
func runStudyOn(ctx context.Context, c *Campaign, st *Study, sj *studyJournal) (*StudyResult, error) {
	if err := validateVirtualTransport(c, st); err != nil {
		return nil, err
	}
	if clustered(st) {
		return runClustered(ctx, c, st, st.Transport, sj)
	}
	return runStudy(ctx, c, st, sj, "", poolWidth(c, st), openLocal(c, st))
}

// single derives the campaign RunSingle runs: the first study only, one
// experiment of it, its record keeping the raw runtime artifacts. The study
// itself is not rewritten — runStudy clips the count — so the journal key
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
// whose record additionally carries the raw runtime artifacts: the local
// timelines and the stamped synchronization messages of both mini-phases.
// The file-oriented tools (cmd/lokid) emit the §3.5.6 and timestamp files
// from them. Everything Run says holds: the study's Transport picks the
// engine, a journaled record — artifacts included — is returned without
// executing, and a cancelled ctx surfaces as ctx.Err().
func RunSingle(ctx context.Context, c *Campaign) (*ExperimentRecord, error) {
	res, err := Run(ctx, single(c))
	if err != nil {
		return nil, err
	}
	return res.Studies[0].Records[0], nil
}

// analyzeExperiment is the analysis phase for one experiment: off-line
// clock synchronization, projection onto the global timeline, conservative
// injection checking (§2.5). It touches no runtime state, which is what
// lets it run concurrently with later experiments' runtime phases. Around
// the analysis proper it settles the experiment's observability: the
// verdict counters, the analyze/verdict trace entries, and the trace
// artifact itself.
func analyzeExperiment(c *Campaign, st *Study, raw *rawExperiment) (*ExperimentRecord, error) {
	cm := c.Obs.CampaignMetrics()
	var wall time.Time
	if cm != nil {
		wall = obs.Now()
	}
	rec, err := analyzeExperimentRecord(c, st, raw)
	if err != nil {
		return rec, err
	}
	if c.single {
		rec.Locals, rec.Stamps = raw.locals, raw.allStamps()
	}
	if cm != nil {
		// Analysis latency is an operational signal, so it is wall-clock
		// even under virtual time (analysis runs off the simulated clock's
		// schedule entirely).
		cm.AnalyzeSeconds.ObserveSince(wall)
		switch {
		case !rec.Completed:
			cm.Aborted.Inc()
		case rec.Accepted:
			cm.Accepted.Inc()
		default:
			cm.Rejected.Inc()
		}
	}
	if tr := raw.trace; tr != nil {
		// The analyze span and verdict event reuse the runtime phase's
		// final clock reading (see rawExperiment.traceEnd): zero duration,
		// but deterministic — the analysis goroutine must not read a
		// virtual clock it does not drive.
		tr.Span("analyze", raw.traceEnd, raw.traceEnd)
		tr.Event(raw.traceEnd, obs.CatVerdict, verdictName(rec), rec.AnalysisError)
		if err := c.Obs.WriteTrace(tr); err != nil {
			c.Obs.Logf(obs.Warn, "campaign", "trace %s/%d: %v", tr.Point, tr.Index, err)
		}
	}
	return rec, nil
}

// verdictName names an experiment's analysis verdict for traces and events.
func verdictName(rec *ExperimentRecord) string {
	switch {
	case !rec.Completed:
		return "aborted"
	case rec.Accepted:
		return "accepted"
	default:
		return "rejected"
	}
}

// analyzeExperimentRecord is the analysis phase proper.
func analyzeExperimentRecord(c *Campaign, st *Study, raw *rawExperiment) (*ExperimentRecord, error) {
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
	bounds, err := clocksync.EstimateAll(raw.allStamps(), raw.ref)
	if err != nil {
		// Infeasible synchronization — a stepped or otherwise non-affine
		// clock — means nothing about this run can be verified: discard
		// it, as the analysis phase discards unprovable injections. But
		// say why when the evidence allows: if each mini-phase admits an
		// affine fit on its own and the fits disagree, the clock stepped
		// mid-experiment (§2.5's linear-drift assumption was violated
		// between the phases, not within them).
		rec.AnalysisError = fmt.Sprintf("clock sync: %v", err)
		rec.ClockStepHosts, rec.ClockStepBounds = clockStepHosts(raw)
		rec.ClockStepSuspected = len(rec.ClockStepHosts) > 0
		return rec, nil
	}
	rec.Bounds = bounds
	g, err := analysis.Build(raw.ref, bounds, raw.locals)
	if err != nil {
		rec.AnalysisError = fmt.Sprintf("global timeline: %v", err)
		return rec, nil
	}
	rec.Global = g
	rec.Report = analysis.CheckExperiment(g, analysis.SpecsFromLocals(raw.locals), c.Check)
	rec.Accepted = rec.Report.Accepted
	return rec, nil
}

// clockStepHosts fits each sync mini-phase separately and returns the
// hosts whose per-phase (alpha, beta) bound boxes are disjoint in alpha —
// hosts whose clock apparently jumped between the phases — along with a
// rigorous interval on each step's magnitude. Empty when either phase
// fails to fit on its own (then the timestamps are bad in a way a step
// cannot explain).
func clockStepHosts(raw *rawExperiment) ([]string, map[string]StepBound) {
	pre, err := clocksync.EstimateAll(raw.preStamps, raw.ref)
	if err != nil {
		return nil, nil
	}
	post, err := clocksync.EstimateAll(raw.postStamps, raw.ref)
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

// snapshotTimelines deep-copies the store's timelines so later experiments
// cannot alias them.
func snapshotTimelines(in []*timeline.Local) []*timeline.Local {
	out := make([]*timeline.Local, len(in))
	for i, l := range in {
		cp := *l
		cp.Entries = append([]timeline.Entry(nil), l.Entries...)
		cp.Machines = append([]string(nil), l.Machines...)
		cp.GlobalStates = append([]string(nil), l.GlobalStates...)
		cp.Events = append([]string(nil), l.Events...)
		cp.Faults = append([]faultexpr.Spec(nil), l.Faults...)
		cp.Hosts = append([]string(nil), l.Hosts...)
		out[i] = &cp
	}
	return out
}
