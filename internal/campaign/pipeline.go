package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/timeline"
	"repro/internal/transport"
)

// testbed is the seam between the experiment pipeline and the machinery an
// experiment runs on. runRuntimePhase owns what every experiment shares —
// phase order, timing, tracing, supervision — and a testbed owns how each
// phase is carried out: by one runtime on the in-memory bus (localTestbed)
// or by a cluster's endpoints under the control protocol (Member).
type testbed interface {
	// runtime is the runtime whose clock times the phases, whose trace
	// hook records them, and which the supervisor watches: the worker's
	// own, or the coordinator's.
	runtime() *core.Runtime
	// reference names the host whose clock the analysis projects onto.
	reference() string
	// reset puts every runtime on a fresh testbed before any traffic
	// flows. point and traced are the trace context remote runtimes label
	// their lanes with.
	reset(point string, index int, traced bool) error
	// sync runs one synchronization mini-phase (§2.3). An error discards
	// the experiment at analysis; the study continues.
	sync() ([]clocksync.StampedMessage, error)
	// execute starts the auto-start nodes, awaits completion or the study
	// timeout, seals, and collects every runtime's artifacts.
	execute(index int) (executed, error)
	// mergeLanes folds the remote runtimes' trace lanes for the finished
	// experiment into tr (nil with tracing off).
	mergeLanes(index int, tr *obs.Trace)
}

// executed is what a testbed's execute step collected, deep-copied out of
// the runtimes so the next experiment cannot alias it.
type executed struct {
	completed bool
	outcomes  map[string]string
	locals    []*timeline.Local
	// lost names machines whose timelines could not be collected.
	lost []string
}

// opener builds a testbed when the pipeline first needs one — a fully
// journaled study opens none — and returns the function that releases it
// once its worker retires.
type opener func() (testbed, func(), error)

// localTestbed is one worker's private runtime: its own virtual host set
// (clocks included), node registrations, and — when the study carries
// action faults — its own chaos engine, so concurrent experiments share no
// mutable runtime state.
type localTestbed struct {
	c   *Campaign
	st  *Study
	rt  *core.Runtime
	cd  *core.CentralDaemon
	ref string
}

// openLocal is the opener of the in-process engine.
func openLocal(c *Campaign, st *Study) opener {
	return func() (testbed, func(), error) {
		tb, err := newLocalTestbed(c, st)
		if err != nil {
			return nil, nil, err
		}
		return tb, tb.close, nil
	}
}

func newLocalTestbed(c *Campaign, st *Study) (*localTestbed, error) {
	// core.New defaults a nil Source to a fresh SystemSource, giving each
	// worker its own time base unless the campaign supplies a shared one.
	cfg := c.Runtime
	cfg.Obs = c.Obs
	if c.VirtualTime {
		// Each worker owns a private virtual-time scheduler: the host
		// clocks' hidden offset/drift geometry is applied over simulated
		// time, so the convex-hull estimator sees the exact stamps a
		// real-time run would produce.
		v := clock.NewVirtual()
		cfg.Clock = v
		cfg.Source = v.Source()
	}
	rt := core.New(cfg)
	for _, h := range c.Hosts {
		rt.AddHost(h.Name, h.Clock)
	}
	for _, def := range st.Nodes {
		if err := rt.Register(def); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	if chaos.HasActionFaults(st.Nodes) {
		if err := chaos.ValidateSpecs(st.Nodes, rt.Hosts()); err != nil {
			rt.Shutdown()
			return nil, err
		}
		chaos.Attach(rt, st.ChaosSeed)
	}
	if tr := rt.Transport(); tr != nil {
		transport.SetObserver(tr, c.Obs.TransportMetrics(tr.Name()))
	}
	return &localTestbed{c: c, st: st, rt: rt, cd: core.NewCentralDaemon(rt), ref: referenceHost(rt)}, nil
}

func (tb *localTestbed) runtime() *core.Runtime { return tb.rt }
func (tb *localTestbed) reference() string      { return tb.ref }

// reset runs BEFORE the pre-sync mini-phase: the previous experiment's
// faults (a stepped clock above all) must not leak into this experiment's
// synchronization stamps, or its clock fit would be spuriously infeasible
// depending on which worker ran what. RunExperiment resets again
// internally; the second reset is a no-op by then.
func (tb *localTestbed) reset(string, int, bool) error {
	tb.rt.ResetExperiment()
	return nil
}

func (tb *localTestbed) sync() ([]clocksync.StampedMessage, error) {
	return exchangeStamps(tb.rt, tb.ref, tb.c.Sync), nil
}

func (tb *localTestbed) execute(int) (executed, error) {
	res, err := tb.cd.RunExperiment(tb.st.Placement, studyTimeout(tb.st))
	if err != nil {
		return executed{}, err
	}
	return executed{completed: res.Completed, outcomes: res.Outcomes, locals: snapshotTimelines(res.Timelines)}, nil
}

// mergeLanes has nothing to fold: one runtime records every lane itself.
func (tb *localTestbed) mergeLanes(int, *obs.Trace) {}

// close retires the worker's runtime, exporting its virtual-clock activity
// first: the scheduler's counters are cumulative over the worker's run.
func (tb *localTestbed) close() {
	if cm := tb.c.Obs.CampaignMetrics(); cm != nil {
		if v, ok := tb.rt.Clock().(*clock.Virtual); ok {
			s := v.Stats()
			cm.VClockTimersFired.Add(s.FiredTimers)
			cm.VClockTasks.Add(s.Tasks)
		}
	}
	tb.rt.Shutdown()
}

// studyTimeout is the bound after which a hung experiment is aborted.
func studyTimeout(st *Study) time.Duration {
	if st.Timeout > 0 {
		return st.Timeout
	}
	return 5 * time.Second
}

// pointName names the study — or, for a matrix-derived campaign or a
// journal binding, the matrix point — in traces and progress events.
func pointName(c *Campaign, st *Study, sj *studyJournal) string {
	switch {
	case sj != nil:
		return sj.point
	case c.matrixPoint != "":
		return c.matrixPoint
	}
	return st.Name
}

// poolWidth is the in-process engine's worker count for the study.
func poolWidth(c *Campaign, st *Study) int {
	switch {
	case st.Workers > 0:
		return st.Workers
	case c.Workers > 0:
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runStudy executes a study's experiments on a pool of up to workers
// testbeds with a pipelined analysis stage: runtime workers (each on its
// own testbed) feed raw experiment artifacts to analysis workers, so the
// clock-sync/global-timeline/containment work for experiment k overlaps
// the runtime phase of experiment k+1 — even with a single runtime worker,
// which is how a clustered study (one shared testbed) enters. Records land
// at their experiment index regardless of completion order, so parallel
// and sequential runs order results identically. member labels the
// progress events with the reporting cluster peer ("" in-process).
//
// With a journal, experiments already journaled are loaded instead of
// re-executed, and each freshly analyzed record is appended as it
// completes — a killed study resumes at the first missing index.
//
// Cancelling ctx stops dispatching further experiment indexes; in-flight
// runtime phases finish (journaling their records, so a resumed run loses
// nothing) and ctx.Err() is returned.
func runStudy(ctx context.Context, c *Campaign, st *Study, sj *studyJournal,
	member string, workers int, open opener) (*StudyResult, error) {

	if err := ValidateExperiments(st.Name, st.Experiments); err != nil {
		return nil, err
	}
	experiments := experimentCount(c, st)
	records := make([]*ExperimentRecord, experiments)
	var missing []int
	for i := 0; i < experiments; i++ {
		rec, err := sj.lookup(i)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			records[i] = rec
			continue
		}
		missing = append(missing, i)
	}
	// Progress events carry cumulative counts, journaled records included,
	// so a resumed study's watcher sees 7000/10000 — not 0/3000.
	point := pointName(c, st, sj)
	var progressDone, progressAccepted atomic.Int64
	for _, rec := range records {
		if rec == nil {
			continue
		}
		progressDone.Add(1)
		if rec.Accepted {
			progressAccepted.Add(1)
		}
	}
	progress := func(kind string) obs.Event {
		return obs.Event{
			Kind: kind, Point: point, Experiments: experiments, Member: member,
			Completed: int(progressDone.Load()), Accepted: int(progressAccepted.Load()),
		}
	}
	c.Obs.Emit(progress(obs.EventStudyStart))
	defer func() { c.Obs.Emit(progress(obs.EventStudyDone)) }()
	if len(missing) == 0 {
		// Fully journaled: no testbed to build at all, which is what makes
		// resuming a finished multi-hour study instantaneous.
		return &StudyResult{Name: st.Name, Records: records}, nil
	}

	if workers > len(missing) {
		workers = len(missing)
	}
	var (
		errOnce  sync.Once
		firstErr error
		done     = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}
	failed := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	// Cancellation is NOT a failure: it only stops the dispatcher, so
	// every in-flight runtime phase still finishes, is analyzed, and is
	// journaled (a resumed run loses nothing), and ctx.Err() surfaces at
	// the end. Real failures close done and drop queued work.
	stopDispatch := make(chan struct{})
	stopWatch := onCancel(ctx, func() { close(stopDispatch) })

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for _, i := range missing {
			select {
			case idxCh <- i:
			case <-done:
				return
			case <-stopDispatch:
				return
			}
		}
	}()

	cm := c.Obs.CampaignMetrics()
	rawCh := make(chan *rawExperiment, workers)
	var runWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		runWG.Add(1)
		go func() {
			defer runWG.Done()
			tb, release, err := open()
			if err != nil {
				fail(err)
				return
			}
			defer release()
			for i := range idxCh {
				var busy time.Time
				if cm != nil {
					busy = obs.Now()
				}
				raw, err := runRuntimePhase(c, st, tb, point, i)
				if cm != nil {
					cm.WorkerBusySeconds.ObserveSince(busy)
				}
				if err != nil {
					fail(fmt.Errorf("experiment %d: %w", i, err))
					return
				}
				select {
				case rawCh <- raw:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		runWG.Wait()
		close(rawCh)
	}()

	var anWG sync.WaitGroup
	for a := 0; a < workers; a++ {
		anWG.Add(1)
		go func() {
			defer anWG.Done()
			for raw := range rawCh {
				if failed() {
					continue // drain
				}
				rec, err := analyzeExperiment(c, st, raw)
				if err != nil {
					fail(err)
					continue
				}
				records[raw.index] = rec
				if err := sj.record(rec); err != nil {
					fail(err)
					continue
				}
				nDone := int(progressDone.Add(1))
				if rec.Accepted {
					progressAccepted.Add(1)
				}
				ev := progress(obs.EventExperiment)
				ev.Index, ev.Completed, ev.AcceptedOne = raw.index, nDone, rec.Accepted
				c.Obs.Emit(ev)
			}
		}()
	}
	anWG.Wait()
	stopWatch()

	if firstErr != nil {
		return nil, firstErr
	}
	// A cancelled study surfaces ctx.Err() — after the drain above has
	// journaled everything that was in flight.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &StudyResult{Name: st.Name, Records: records}, nil
}

// rawExperiment is the runtime phase's output handed to the analysis
// stage: everything analysis needs, deep-copied out of the testbed so the
// next experiment on it cannot alias it. The two sync mini-phases stay
// separate so the analysis can compare their fits when the combined fit is
// infeasible (clock-step detection).
type rawExperiment struct {
	index      int
	completed  bool
	outcomes   map[string]string
	preStamps  []clocksync.StampedMessage
	postStamps []clocksync.StampedMessage
	locals     []*timeline.Local
	// lostTimelines names machines whose timelines could not be
	// collected (clustered runs: unencodable or over the frame budget).
	// The experiment cannot be verified without them and is discarded.
	lostTimelines []string
	// syncError records a failed synchronization mini-phase (clustered
	// runs: too many lost round trips). The experiment is discarded —
	// without sound stamps nothing about it can be verified — but the
	// study continues, matching the discard-don't-abort analysis
	// semantics everywhere else.
	syncError string
	ref       string
	// trace is the experiment's span/event collection (nil with tracing
	// off). traceEnd is the runtime clock's reading at the end of the
	// phase, captured inside the virtual-time Drive window: the analysis
	// stage runs on untracked goroutines that race later Drive windows, so
	// its trace entries reuse this timestamp instead of reading the clock —
	// the virtual-time artifact stays byte-reproducible.
	trace    *obs.Trace
	traceEnd time.Time
}

func (raw *rawExperiment) allStamps() []clocksync.StampedMessage {
	out := make([]clocksync.StampedMessage, 0, len(raw.preStamps)+len(raw.postStamps))
	out = append(out, raw.preStamps...)
	return append(out, raw.postStamps...)
}

// runRuntimePhase executes one experiment's runtime phase on the testbed
// (thesis §2.3, Fig. 2.1): reset, pre-sync mini-phase, the experiment
// itself (with supervised restarts if configured), post-sync mini-phase,
// and the member-lane merge. point names the study or matrix point for
// traces and progress events.
func runRuntimePhase(c *Campaign, st *Study, tb testbed, point string, index int) (*rawExperiment, error) {
	rt := tb.runtime()
	clk := rt.Clock()
	// Under virtual time the worker drives its runtime's scheduler for
	// the duration of the phase: timers fire (advancing simulated time)
	// only inside this window, and the worker itself is a tracked task
	// that may block only through the runtime clock.
	if v, ok := clk.(*clock.Virtual); ok {
		v.Drive()
		defer v.Release()
	}

	var tr *obs.Trace
	if c.Obs.Tracing() {
		tr = obs.NewTrace(point, index)
		rt.SetTrace(tr)
		defer rt.SetTrace(nil)
	}
	cm := c.Obs.CampaignMetrics()
	observing := tr != nil || cm != nil
	if cm == nil {
		cm = &obs.CampaignMetrics{} // nil histograms: Observe is a no-op
	}
	// Phase timestamps come from the runtime clock — the injected wall
	// clock in real time, the simulated clock under virtual time — so the
	// trace of a virtual run is byte-reproducible. mark is where the
	// current phase began; phase closes it as a span plus an observation.
	var mark time.Time
	if observing {
		mark = clk.Now()
	}
	phase := func(name string, seconds *obs.Histogram) {
		if !observing {
			return
		}
		now := clk.Now()
		tr.Span(name, mark, now)
		seconds.Observe(now.Sub(mark).Seconds())
		mark = now
	}

	if err := tb.reset(point, index, tr != nil); err != nil {
		return nil, err
	}
	phase("reset", cm.ResetSeconds)

	// A failed mini-phase (a loss burst on a real network) discards this
	// experiment at analysis, but the phases still run end to end so every
	// runtime stays in lockstep for the next one.
	var syncErr string
	pre, err := tb.sync()
	if err != nil {
		syncErr = fmt.Sprintf("pre-sync: %v", err)
	}
	phase("clock-sync-pre", cm.SyncSeconds)

	var sup *supervisor
	if st.Restarts != nil {
		sup = startSupervisor(rt, *st.Restarts)
	}
	run, err := tb.execute(index)
	if sup != nil {
		sup.stop()
	}
	if err != nil {
		return nil, err
	}
	phase("experiment", cm.RunSeconds)

	post, err := tb.sync()
	if err != nil && syncErr == "" {
		syncErr = fmt.Sprintf("post-sync: %v", err)
	}
	phase("clock-sync-post", cm.SyncSeconds)

	// Lanes merge after both sync phases have contributed offset
	// estimates; merged spans land in the same artifact the analysis
	// stage writes.
	tb.mergeLanes(index, tr)

	return &rawExperiment{
		index:         index,
		completed:     run.completed,
		outcomes:      run.outcomes,
		preStamps:     pre,
		postStamps:    post,
		locals:        run.locals,
		lostTimelines: run.lost,
		syncError:     syncErr,
		ref:           tb.reference(),
		trace:         tr,
		traceEnd:      mark,
	}, nil
}
