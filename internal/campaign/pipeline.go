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
	// bind readies the testbed for study st of campaign c (a matrix
	// point's under RunMatrix) before it runs the first experiment of it.
	bind(c *Campaign, st *Study) error
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
// one — a fully journaled point opens none — and returns the function that
// gives it back once the worker retires, with the error of the runtime
// phase that retired it, if one did.
type opener func() (testbed, func(error))

// pool is what one Run or RunMatrix call lends its pipelines: idle
// in-process testbeds and analysis scratch. It fills lazily, so a fully
// journaled study takes nothing from it; a testbed given back is bound to
// the next study or point that takes it, and its spent scratch goes along.
// close shuts every testbed down when the call returns.
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

// open is the in-process engine's opener: an idle testbed, or a bare one.
func (p *pool) open() (testbed, func(error)) {
	tb := p.testbeds.take()
	if tb == nil {
		tb = newLocalTestbed(p)
	}
	return tb, tb.release
}

// analyzer lends an analysis worker its scratch.
func (p *pool) analyzer() *analyzer {
	if an := p.analyzers.take(); an != nil {
		return an
	}
	return new(analyzer)
}

func (p *pool) putAnalyzer(an *analyzer) { p.analyzers.put(an) }

// close shuts down every testbed the pool holds: all of them, once the
// call's studies have returned.
func (p *pool) close() {
	for _, tb := range p.testbeds.items {
		tb.close()
	}
}

// localTestbed is one in-process testbed: a runtime with its own virtual
// host set (clocks included), node registrations and — once a study it
// runs carries action faults — chaos engine, so concurrent experiments
// share no mutable runtime state. It outlives the study or point it runs:
// the pipeline binds it to each one its worker claims.
type localTestbed struct {
	c       *Campaign // the study's or point's; bind sets it and st
	st      *Study
	rt      *core.Runtime
	cd      *core.CentralDaemon
	hosts   []string // sorted; the sync mini-phases walk them
	ref     string
	actions *chaos.Engine // attached by the first study with actions, and kept
	// raws holds the analysed experiments handed back (spent), at most as
	// many as a pipeline of the pool's campaign can have in flight.
	raws chan *rawExperiment
	// release gives the testbed back to its pool, or, after a runtime
	// phase failed on it, shuts it down: a failed experiment may have left
	// nodes live.
	release func(error)
}

// newLocalTestbed builds a bare testbed for pool p: a runtime holding the
// campaign's hosts and nothing else, for bind to bind to a study.
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
	// A pipeline runs poolWidth(p.c) workers, each with at most two raws
	// queued behind it and one in its hands.
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

// bind binds the testbed to study st of campaign c — a study of Run, or a
// matrix point's — returning it to the state a testbed built fresh for
// them has: Runtime.Rewind with c's notification delays, then the study's
// nodes (registerNodes) and, when it has actions, the testbed's chaos
// engine, attached by the first such study and reattached for the next, so
// the engine parses each action call once. A testbed that fails to bind is
// shut down, not given back.
func (tb *localTestbed) bind(c *Campaign, st *Study) error {
	tb.c, tb.st = c, st
	tb.rt.Rewind(c.Runtime.LocalDelay, c.Runtime.RemoteDelay)
	if err := registerNodes(tb.rt, c, st, nil); err != nil {
		return err
	}
	switch {
	case !chaos.HasActionFaults(st.Nodes):
	case tb.actions == nil:
		tb.actions = chaos.Attach(tb.rt, st.ChaosSeed)
	default:
		tb.actions.Reattach(st.ChaosSeed)
	}
	return nil
}

// registerNodes binds on a testbed's runtime the study's nodes that
// testbed runs — those runs admits, every node when runs is nil — each
// with an application NewApp builds for the campaign's matrix point (or
// Point{Seed: ChaosSeed}) (Runtime.Rebind).
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
	return rt.Rebind(defs)
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

// poolWidth is the in-process engine's worker count: the campaign's
// Workers, else GOMAXPROCS.
func poolWidth(c *Campaign) int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// unit is one study or matrix point of a pipeline, with its records and
// progress. pc and ps hold a matrix point's campaign and study, which c
// and st then point at.
type unit struct {
	c    *Campaign
	st   *Study
	sj   *studyJournal
	prog progress
	pc   Campaign
	ps   Study

	scan    sync.Once
	scanErr error
	started bool // its start event is out
	records []*ExperimentRecord
	// missing counts the records the journal lacks, left those not yet
	// journaled (whoever journals the last emits the done event), and next
	// is the next index to claim.
	missing    int
	next, left atomic.Int64
}

// set binds the unit to study st of campaign c under sj, naming it in
// traces and progress events by its journal binding's point, else by c's
// matrix point, else by st; member labels them with the reporting cluster
// peer ("" in-process).
func (u *unit) set(c *Campaign, st *Study, sj *studyJournal, member string) {
	u.c, u.st, u.sj = c, st, sj
	point := st.Name
	switch {
	case sj != nil:
		point = sj.point
	case c.point != nil:
		point = c.point.Name()
	}
	u.prog.sink, u.prog.point, u.prog.member = c.Obs, point, member
}

// open looks the unit's records up and reports its start, once. Progress
// counts journaled records (a resumed watcher sees 7000/10000, not
// 0/3000), and a fully journaled unit is done at once, binding no testbed.
func (u *unit) open() error {
	u.scan.Do(func() {
		u.records = make([]*ExperimentRecord, experimentCount(u.c, u.st))
		for i := range u.records {
			rec, err := u.sj.lookup(i)
			if err != nil {
				u.scanErr = err
				return
			}
			if u.records[i] = rec; rec == nil {
				u.missing++
			} else if u.prog.done.Add(1); rec.Accepted {
				u.prog.accepted.Add(1)
			}
		}
		u.prog.experiments, u.started = len(u.records), true
		u.left.Store(int64(u.missing))
		u.sj.event(&u.prog, obs.EventStudyStart)
		if u.missing == 0 {
			u.sj.event(&u.prog, obs.EventStudyDone)
		}
	})
	return u.scanErr
}

// pipeline is runPipeline's state.
type pipeline struct {
	ctx   context.Context
	units []unit
	raws  chan *rawExperiment
	next  atomic.Int64 // the next unit to claim whole
	stop  atomic.Bool  // set by the first failure
	mu    sync.Mutex
	err   error
	fault *unit // whose experiment failed first, if one did
}

// runPipeline runs the units' experiments: workers runtime workers, each
// on a testbed open lends, feed as many analysis workers, on scratch pl
// lends, so one experiment's analysis overlaps the next one's runtime
// phase, a unit's last the next unit's first. With at least as many units
// as workers, each worker claims whole units and binds its testbed to each
// (testbed.bind), so a unit runs on one testbed rewound to a fresh one's
// state; with fewer, a unit's indices are shared by its share of the
// workers. Records land at their index. Journaled experiments are loaded,
// not re-executed, and each fresh record is queued for the journal's
// committer as it is analyzed; a unit's done event follows its last
// record, or the drain if the call stops short. The first failure, or a
// cancelled ctx, stops every further claim, but what is in flight is run,
// analyzed and journaled. Then the failure with its unit, or ctx.Err()
// and nil, is returned. A unit of a socket transport runs whole on a
// loopback cluster of its own (runClustered), which its worker claims the
// same way, so up to workers clusters run at once.
func runPipeline(ctx context.Context, units []unit, workers int, open opener, pl *pool) (*unit, error) {
	p := &pipeline{ctx: ctx, units: units, raws: make(chan *rawExperiment, workers)}
	var runWG, anWG sync.WaitGroup
	runWG.Add(workers)
	anWG.Add(workers)
	for w := range workers {
		go func() {
			defer runWG.Done()
			p.work(w, workers, open)
		}()
		go func() {
			defer anWG.Done()
			p.analyze(pl)
		}()
	}
	runWG.Wait()
	close(p.raws)
	anWG.Wait()
	for i := range units {
		if u := &units[i]; u.started && u.left.Load() > 0 {
			u.sj.event(&u.prog, obs.EventStudyDone)
		}
	}
	return p.result()
}

// result is the call's outcome: the first failure with its unit, or
// ctx.Err() and nil.
func (p *pipeline) result() (*unit, error) {
	if p.err != nil {
		return p.fault, p.err
	}
	return nil, p.ctx.Err()
}

func (p *pipeline) fail(u *unit, err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err, p.fault = err, u
		p.stop.Store(true)
	}
	p.mu.Unlock()
}

func (p *pipeline) stopped() bool { return p.stop.Load() || p.ctx.Err() != nil }

// take returns the unit worker w of workers runs next and w's rank among
// that unit's workers, or nil once none is left or the call has stopped.
// With fewer units than workers worker w has one, w mod len(units).
func (p *pipeline) take(w, workers int, first bool) (*unit, int) {
	n := len(p.units)
	switch {
	case p.stopped():
	case n < workers:
		if first {
			return &p.units[w%n], w / n
		}
	default:
		if k := int(p.next.Add(1) - 1); k < n {
			return &p.units[k], 0
		}
	}
	return nil, 0
}

// claim returns the next missing index of u, or false once none is left or
// the call has stopped. Workers claim for themselves: a dispatcher would be
// one more goroutine wake-up, a cross-CPU hand-off, per experiment.
func (p *pipeline) claim(u *unit) (int, bool) {
	for i := int(u.next.Add(1) - 1); i < len(u.records) && !p.stopped(); i = int(u.next.Add(1) - 1) {
		if u.records[i] == nil {
			return i, true
		}
	}
	return 0, false
}

// work is runtime worker w: it opens a testbed for the first unit it runs
// and binds it to each next one, leaving a unit with fewer missing
// experiments than w's rank to its other workers, and a clustered unit to
// its first.
func (p *pipeline) work(w, workers int, open opener) {
	var (
		tb      testbed
		release func(error)
		spent   chan *rawExperiment
		bound   *unit
		failure error
	)
	defer func() {
		if release != nil {
			release(failure)
		}
	}()
	for u, rank := p.take(w, workers, true); u != nil; u, rank = p.take(w, workers, false) {
		if clustered(u.st) && u.prog.member == "" { // no cluster member runs it yet
			if rank == 0 {
				sr, err := runClustered(p.ctx, u.c, u.st, u.st.Transport, u.sj)
				if err != nil {
					p.fail(u, err)
					return
				}
				u.records = sr.Records
			}
			continue
		}
		if err := u.open(); err != nil {
			p.fail(u, err)
			return
		}
		if rank >= u.missing {
			continue
		}
		if tb == nil {
			tb, release = open()
			spent = tb.spent() // only tb's runtime may reuse its timelines
		}
		if bound != u {
			if failure = tb.bind(u.c, u.st); failure != nil {
				p.fail(u, failure)
				return
			}
			bound = u
		}
		cm := u.c.Obs.CampaignMetrics()
		for i, ok := p.claim(u); ok; i, ok = p.claim(u) {
			var spare *rawExperiment
			select {
			case spare = <-spent:
			default:
			}
			var busy time.Time
			if cm != nil {
				busy = obs.Now()
			}
			raw, err := runRuntimePhase(u.c, u.st, tb, u.prog.point, i, spare)
			if cm != nil {
				cm.WorkerBusySeconds.ObserveSince(busy)
			}
			if err != nil {
				failure = fmt.Errorf("experiment %d: %w", i, err)
				p.fail(u, failure)
				return
			}
			raw.unit, raw.home = u, spent
			p.raws <- raw
		}
	}
}

// analyze is an analysis worker, on scratch pl lends: it analyzes and
// journals each raw experiment, then hands it back to its runtime worker.
func (p *pipeline) analyze(pl *pool) {
	an := pl.analyzer()
	defer pl.putAnalyzer(an)
	for raw := range p.raws {
		u := raw.unit
		rec, err := analyzeExperiment(u.c, u.st, raw, an)
		if err != nil {
			p.fail(u, err)
			continue
		}
		u.records[raw.index] = rec
		if err := u.sj.record(rec, &u.prog); err != nil {
			p.fail(u, err)
		}
		if u.left.Add(-1) == 0 {
			u.sj.event(&u.prog, obs.EventStudyDone)
		}
		if !u.c.single { // RunSingle's record keeps the timelines and stamps
			raw.outcomes = nil // the record's
			select {
			case raw.home <- raw:
			default:
			}
		}
	}
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
// outcomes, or under RunSingle all of it. unit is the study or point it
// belongs to.
type rawExperiment struct {
	unit      *unit
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
