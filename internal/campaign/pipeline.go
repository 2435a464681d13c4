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
	// sync runs one synchronization mini-phase (§2.3) and returns dst with
	// the phase's stamps appended. An error discards the experiment at
	// analysis, and the study continues; dst then comes back as it was
	// given, without a partial phase.
	sync(dst []clocksync.StampedMessage) ([]clocksync.StampedMessage, error)
	// execute starts the auto-start nodes, awaits completion or the study
	// timeout, seals, and collects every runtime's artifacts.
	execute(index int) (executed, error)
	// mergeLanes folds the remote runtimes' trace lanes for the finished
	// experiment into tr (nil with tracing off).
	mergeLanes(index int, tr *obs.Trace)
	// recycle takes back an analysed experiment's timelines, which
	// nothing references any more, for later experiments to record into.
	recycle(locals []*timeline.Local)
	// spent is where the analysis stage hands the testbed's analysed
	// experiments back, for later runtime phases on it to reuse their
	// timelines, stamps and raw record.
	spent() chan *rawExperiment
}

// executed is what a testbed's execute step collected. The timelines are
// the sealed runtimes' own (SealExperiment): no later experiment writes
// them, so they are handed on without copying.
type executed struct {
	completed bool
	outcomes  map[string]string
	locals    []*timeline.Local
	// lost names machines whose timelines could not be collected.
	lost []string
}

// opener lends a runtime worker its testbed when the pipeline first needs
// one — a fully journaled study opens none — and returns the function that
// gives it back once the worker retires, with the error of the runtime
// phase that retired it, if one did.
type opener func() (testbed, func(error), error)

// pool is what one Run or RunMatrix call lends its studies and points:
// idle in-process testbeds and analysis scratch. It fills lazily, so a
// fully journaled study takes nothing from it; a testbed given back is
// rebound to the next study or point that takes it, and its spent
// scratch goes along. close shuts every testbed down when the call
// returns. A nil pool lends fresh analysis scratch only (a cluster
// member's study).
type pool struct {
	c         *Campaign // the call's campaign: hosts and runtime configuration
	testbeds  idle[localTestbed]
	analyzers idle[analyzer]
}

// idle is a pool's stack of one kind of idle object.
type idle[T any] struct {
	mu    sync.Mutex
	items []*T
}

// take pops an idle object, or returns nil.
func (s *idle[T]) take() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return nil
	}
	x := s.items[n-1]
	s.items[n-1] = nil
	s.items = s.items[:n-1]
	return x
}

func (s *idle[T]) put(x *T) {
	s.mu.Lock()
	s.items = append(s.items, x)
	s.mu.Unlock()
}

func newPool(c *Campaign) *pool { return &pool{c: c} }

// open is the in-process engine's opener for study st of campaign c (a
// matrix point's campaign under RunMatrix): it takes an idle testbed, or
// builds a bare one, and rebinds it to st. One that fails to rebind is
// shut down, not given back.
func (p *pool) open(c *Campaign, st *Study) opener {
	return func() (testbed, func(error), error) {
		tb := p.testbeds.take()
		if tb == nil {
			tb = newLocalTestbed(p)
		}
		if err := tb.rebind(c, st); err != nil {
			tb.close()
			return nil, nil, err
		}
		return tb, tb.release, nil
	}
}

// analyzer lends an analysis worker its scratch.
func (p *pool) analyzer() *analyzer {
	if p != nil {
		if an := p.analyzers.take(); an != nil {
			return an
		}
	}
	return new(analyzer)
}

func (p *pool) putAnalyzer(an *analyzer) {
	if p != nil {
		p.analyzers.put(an)
	}
}

// close shuts down every testbed the pool holds: all of them, once the
// call's studies have returned.
func (p *pool) close() {
	for _, tb := range p.testbeds.items {
		tb.close()
	}
}

// localTestbed is one in-process testbed: a runtime with its own virtual
// host set (clocks included), node registrations and — when its study
// carries action faults — chaos engine, so concurrent experiments share no
// mutable runtime state. It outlives the study or point it runs: its pool
// rebinds it to each one a worker takes it for.
type localTestbed struct {
	c     *Campaign // the study's or point's; rebind sets it and st
	st    *Study
	rt    *core.Runtime
	cd    *core.CentralDaemon
	hosts []string // sorted; the sync mini-phases walk them
	ref   string
	// raws holds the analysed experiments handed back (spent), at most as
	// many as any study of the pool's campaign can have in flight.
	raws chan *rawExperiment
	// release gives the testbed back to its pool, or, after a runtime
	// phase failed on it, shuts it down: a failed experiment may have left
	// nodes live.
	release func(error)
}

// newLocalTestbed builds a bare testbed for pool p: a runtime holding the
// campaign's hosts and nothing else, for rebind to bind to a study.
func newLocalTestbed(p *pool) *localTestbed {
	// core.New defaults a nil Source to the runtime's clock: the wall
	// clock's one process-wide time base unless the campaign supplies
	// another.
	cfg := p.c.Runtime
	cfg.Obs = p.c.Obs
	if p.c.VirtualTime {
		// Each testbed owns a private virtual-time scheduler, which is also
		// the host clocks' time base: their hidden offset/drift geometry is
		// applied over simulated time, so the convex-hull estimator sees
		// the exact stamps a real-time run would produce.
		cfg.Clock, cfg.Source = clock.NewVirtual(), nil
	}
	rt := core.New(cfg)
	for _, h := range p.c.Hosts {
		rt.AddHost(h.Name, h.Clock)
	}
	if tr := rt.Transport(); tr != nil {
		transport.SetObserver(tr, p.c.Obs.TransportMetrics(tr.Name()))
	}
	hosts := rt.Hosts()
	// A study runs on at most poolWidth(p.c) workers, each with at most
	// two raws queued behind it and one in its hands.
	tb := &localTestbed{rt: rt, cd: core.NewCentralDaemon(rt), hosts: hosts, ref: referenceHost(hosts),
		raws: make(chan *rawExperiment, 2*poolWidth(p.c)+1)}
	tb.release = func(err error) {
		if err != nil {
			tb.close()
			return
		}
		p.testbeds.put(tb)
	}
	return tb
}

// rebind binds the testbed to study st of campaign c — a study of Run, or
// a matrix point's — returning it to the state a testbed built fresh for
// them has: Runtime.Rewind with c's notification delays, then the study's
// nodes (registerNodes).
func (tb *localTestbed) rebind(c *Campaign, st *Study) error {
	tb.c, tb.st = c, st
	tb.rt.Rewind(c.Runtime.LocalDelay, c.Runtime.RemoteDelay)
	return registerNodes(tb.rt, c, st, nil)
}

// registerNodes binds on a testbed's runtime the study's nodes that
// testbed runs — those runs admits, every node when runs is nil — each
// with an application NewApp builds for the campaign's matrix point (or
// Point{Seed: ChaosSeed}) (Runtime.Rebind), and attaches chaos when the
// study has actions.
func registerNodes(rt *core.Runtime, c *Campaign, st *Study, runs func(nick string) bool) error {
	p := Point{Seed: st.ChaosSeed}
	if c.point != nil {
		p = *c.point
	}
	defs := make([]core.NodeDef, 0, len(st.Nodes))
	for _, def := range st.Nodes {
		if runs != nil && !runs(def.Nickname) {
			continue
		}
		app, err := st.NewApp(p, def.Nickname)
		if err != nil {
			return fmt.Errorf("campaign: node %q: %w", def.Nickname, err)
		}
		def.App = app
		defs = append(defs, def)
	}
	if err := rt.Rebind(defs); err != nil {
		return err
	}
	if chaos.HasActionFaults(st.Nodes) {
		chaos.Attach(rt, st.ChaosSeed)
	}
	return nil
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

func (tb *localTestbed) sync(dst []clocksync.StampedMessage) ([]clocksync.StampedMessage, error) {
	return exchangeStamps(dst, tb.rt, tb.ref, tb.hosts, tb.c.Sync), nil
}

func (tb *localTestbed) execute(int) (executed, error) {
	res, err := tb.cd.RunExperiment(tb.st.Placement, studyTimeout(tb.st))
	if err != nil {
		return executed{}, err
	}
	return executed{completed: res.Completed, outcomes: res.Outcomes, locals: res.Timelines}, nil
}

// mergeLanes has nothing to fold: one runtime records every lane itself.
func (tb *localTestbed) mergeLanes(int, *obs.Trace) {}

func (tb *localTestbed) recycle(locals []*timeline.Local) { tb.rt.RecycleTimelines(locals) }

func (tb *localTestbed) spent() chan *rawExperiment { return tb.raws }

// close retires the testbed's runtime, exporting its virtual-clock
// activity first: the scheduler's counters are cumulative over every study
// and point the testbed ran.
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
	case c.point != nil:
		return c.point.Name()
	}
	return st.Name
}

// poolWidth is the in-process engine's worker count: the campaign's
// Workers, else GOMAXPROCS. A matrix point's campaign carries the point's
// share of the matrix pool.
func poolWidth(c *Campaign) int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// runStudy executes a study's experiments on up to workers testbeds, which
// open lends, with a pipelined analysis stage, whose scratch pl lends:
// runtime workers (each on its own testbed) feed raw experiment artifacts
// to analysis workers, so the clock-sync/global-timeline/containment work
// for experiment k overlaps the runtime phase of experiment k+1 — even
// with a single runtime worker, which is how a clustered study (one shared
// testbed) enters. Records land at their experiment index regardless of
// completion order, so parallel and sequential runs order results
// identically. member labels the progress events with the reporting
// cluster peer ("" in-process).
//
// With a journal, experiments already journaled are loaded instead of
// re-executed, and each freshly analyzed record is queued for the journal's
// committer as it completes — a killed study resumes at the first missing
// index. runStudy does not wait for its records to reach the disk: its
// progress events follow them through the committer, and the engine that
// opened the journal returns only after Close has drained it.
//
// Cancelling ctx stops dispatching further experiment indexes; in-flight
// runtime phases finish (journaling their records, so a resumed run loses
// nothing) and ctx.Err() is returned.
func runStudy(ctx context.Context, c *Campaign, st *Study, sj *studyJournal,
	member string, workers int, open opener, pl *pool) (*StudyResult, error) {

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
	prog := &progress{sink: c.Obs, point: pointName(c, st, sj), experiments: experiments, member: member}
	for _, rec := range records {
		if rec == nil {
			continue
		}
		prog.done.Add(1)
		if rec.Accepted {
			prog.accepted.Add(1)
		}
	}
	sj.event(prog, obs.EventStudyStart)
	defer sj.event(prog, obs.EventStudyDone)
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
	// Workers claim the next missing index themselves: a dispatcher
	// goroutine would be one more goroutine wake-up per experiment, which
	// on a small machine is one more cross-CPU hand-off whose cost varies
	// with the host's load. Cancellation is NOT a failure: it only stops
	// further claims, so every in-flight runtime phase still finishes, is
	// analyzed, and is journaled (a resumed run loses nothing), and
	// ctx.Err() surfaces at the end. Real failures close done and drop
	// queued work.
	var claimed atomic.Int64
	claim := func() (int, bool) {
		if failed() || ctx.Err() != nil {
			return 0, false
		}
		k := int(claimed.Add(1) - 1)
		if k >= len(missing) {
			return 0, false
		}
		return missing[k], true
	}

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
			var failure error
			defer func() { release(failure) }()
			// spent brings the testbed's analysed experiments back: only
			// its own runtime may record into timelines its store still
			// lists. The worker makes a new one only when none is spare,
			// so no more exist than fit in flight — at the worker, in rawCh
			// and at the analysts — and the next study or point the
			// testbed runs starts on what this one leaves there.
			spent := tb.spent()
			for i, ok := claim(); ok; i, ok = claim() {
				var spare *rawExperiment
				select {
				case spare = <-spent:
				default:
				}
				var busy time.Time
				if cm != nil {
					busy = obs.Now()
				}
				raw, err := runRuntimePhase(c, st, tb, prog.point, i, spare)
				if cm != nil {
					cm.WorkerBusySeconds.ObserveSince(busy)
				}
				if err != nil {
					failure = fmt.Errorf("experiment %d: %w", i, err)
					fail(failure)
					return
				}
				raw.home = spent
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
			an := pl.analyzer() // this analysis worker's scratch
			defer pl.putAnalyzer(an)
			for raw := range rawCh {
				if failed() {
					continue // drain
				}
				rec, err := analyzeExperiment(c, st, raw, an)
				if err != nil {
					fail(err)
					continue
				}
				records[raw.index] = rec
				if err := sj.record(rec, prog); err != nil {
					fail(err)
				}
				if !c.single { // RunSingle's record keeps the timelines and stamps
					raw.outcomes = nil // the record's
					select {
					case raw.home <- raw:
					default:
					}
				}
			}
		}()
	}
	anWG.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	// A cancelled study surfaces ctx.Err() — after the drain above has
	// queued everything that was in flight for the journal, whose Close
	// makes it durable before the engine returns.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &StudyResult{Name: st.Name, Records: records}, nil
}

// progress is one study's live progress: its cumulative counts and the
// events that report them. Without a journal its events are emitted by the
// pipeline; with one, by the journal's committer (studyJournal.record).
type progress struct {
	sink           *obs.Sink
	point, member  string
	experiments    int
	done, accepted atomic.Int64
}

// emit sends one event of kind; an experiment event first counts the
// experiment, whose verdict is v.
func (p *progress) emit(kind string, index int, v Verdict) {
	ev := obs.Event{Kind: kind, Point: p.point, Experiments: p.experiments, Member: p.member}
	if kind == obs.EventExperiment {
		if v == Accepted {
			p.accepted.Add(1)
		}
		ev.Index, ev.Verdict, ev.Completed = index, v.String(), int(p.done.Add(1))
	} else {
		ev.Completed = int(p.done.Load())
	}
	ev.Accepted = int(p.accepted.Load())
	p.sink.Emit(ev)
}

// rawExperiment is the runtime phase's output handed to the analysis
// stage: everything analysis needs. The analysis reads it while the worker
// runs the next experiment, so everything in it — timelines, stamps,
// outcomes — is the receiver's (only the timelines' immutable header lists
// are shared). Once the record is journaled, the analysis worker hands it
// back to home, its runtime worker, less what the record keeps: the
// outcomes, or under RunSingle all of it.
type rawExperiment struct {
	home      chan<- *rawExperiment
	index     int
	completed bool
	outcomes  map[string]string
	// stamps holds both sync mini-phases in one slice, the pre-sync
	// phase's stamps first: stamps[:pre] and stamps[pre:] are the two
	// phases' windows, which the analysis compares when the combined fit
	// is infeasible (clock-step detection).
	stamps []clocksync.StampedMessage
	pre    int
	locals []*timeline.Local
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

// runRuntimePhase executes one experiment's runtime phase on the testbed
// (thesis §2.3, Fig. 2.1): reset, pre-sync mini-phase, the experiment
// itself (with supervised restarts if configured), post-sync mini-phase,
// and the member-lane merge. point names the study or matrix point for
// traces and progress events. spare, if not nil, is an analysed
// experiment whose scratch this one reuses.
func runRuntimePhase(c *Campaign, st *Study, tb testbed, point string, index int, spare *rawExperiment) (*rawExperiment, error) {
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

	raw := spare
	if raw != nil {
		tb.recycle(raw.locals)
	} else {
		raw = new(rawExperiment)
	}
	// A failed mini-phase (a loss burst on a real network) discards this
	// experiment at analysis, but the phases still run end to end so every
	// runtime stays in lockstep for the next one.
	var syncErr string
	stamps, err := tb.sync(raw.stamps[:0])
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

	pre := len(stamps)
	stamps, err = tb.sync(stamps)
	if err != nil && syncErr == "" {
		syncErr = fmt.Sprintf("post-sync: %v", err)
	}
	phase("clock-sync-post", cm.SyncSeconds)

	// Lanes merge after both sync phases have contributed offset
	// estimates; merged spans land in the same artifact the analysis
	// stage writes.
	tb.mergeLanes(index, tr)

	*raw = rawExperiment{
		index:         index,
		completed:     run.completed,
		outcomes:      run.outcomes,
		stamps:        stamps,
		pre:           pre,
		locals:        run.locals,
		lostTimelines: run.lost,
		syncError:     syncErr,
		ref:           tb.reference(),
		trace:         tr,
		traceEnd:      mark,
	}
	return raw, nil
}
