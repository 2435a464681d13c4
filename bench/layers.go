package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	loki "repro"
	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/faultexpr"
	"repro/internal/report"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The layer spans: the harness times public calls into one layer at a
// time, on inputs captured from the workload's own campaign file, so each
// figure is that layer's cost for this workload's experiment. Nothing in
// the program is edited; spans inside it are a later change.

// spanBatches is how many batches a span is timed over; the median batch
// is reported, so one scheduling hiccup does not move the figure.
const spanBatches = 5

// nanos is a span's time per call in nanoseconds, fractions kept: a mean
// over thousands of calls resolves far below the clock's tick.
type nanos float64

func (d nanos) ns() float64 { return float64(d) }
func (d nanos) us() float64 { return float64(d) / 1e3 }
func (d nanos) ms() float64 { return float64(d) / 1e6 }

// perOp times fn in batches batches of n calls each and returns the
// median batch's mean time per call.
func perOp(batches, n int, fn func()) nanos {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return nanos(median(per))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fixture is one experiment of the workload captured through
// Session.RunOne: the record, the sync stamps, the local timelines, and
// the trace artifact the same run wrote.
type fixture struct {
	exp   *loki.Experiment
	trace *loki.Trace
}

func (r *runner) captureFixture() (*fixture, error) {
	dir, err := r.freshDir()
	if err != nil {
		return nil, err
	}
	traces := filepath.Join(dir, "traces")
	opts := append(r.def.options(dir), loki.WithTracing(traces))
	s, err := loki.Open(r.def.fixture(r.cfg.seed), opts...)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	defer s.Close()
	exp, err := s.RunOne(context.Background())
	if err != nil {
		return nil, fmt.Errorf("fixture: RunOne: %w", err)
	}
	if exp.Record == nil || exp.Record.Global == nil {
		return nil, fmt.Errorf("fixture: experiment produced no global timeline (%+v)", exp.Record)
	}
	fx := &fixture{exp: exp}
	err = filepath.WalkDir(traces, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".trace.jsonl") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fx.trace, err = loki.DecodeTrace(f)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fixture: trace: %w", err)
	}
	if fx.trace == nil {
		return nil, fmt.Errorf("fixture: RunOne wrote no trace under %s", traces)
	}
	return fx, nil
}

// spanIters scales a span's iteration count with -scale, so smoke runs
// stay fast; at least 2 so there is something to take a mean of.
func (r *runner) spanIters(n int) int {
	if v := scaled(n, r.cfg.scale); v > 2 {
		return v
	}
	return 2
}

// analysisSpans times the analysis phase's layers on the fixture: the
// three steps campaign.analyze runs per experiment, then the codecs.
func (r *runner) analysisSpans(vals series, fx *fixture) error {
	rec, locals, stamps := fx.exp.Record, fx.exp.Locals, fx.exp.Stamps
	ref := rec.Global.Reference
	n := r.spanIters(500)

	var err error
	vals.add("clocksync.estimate_all_us", perOp(spanBatches, n, func() {
		if _, e := loki.EstimateClocks(stamps, ref); e != nil {
			err = e
		}
	}).us())
	var g *loki.GlobalTimeline
	vals.add("analysis.build_us", perOp(spanBatches, n, func() {
		var e error
		if g, e = loki.BuildGlobalTimeline(ref, rec.Bounds, locals); e != nil {
			err = e
		}
	}).us())
	if err != nil {
		return fmt.Errorf("analysis spans: %w", err)
	}
	vals.add("analysis.check_us", perOp(spanBatches, n, func() {
		loki.CheckExperiment(g, loki.FaultSpecsOf(locals), loki.CheckOptions{})
	}).us())
	vals.add("analysis.encode_us", perOp(spanBatches, n, func() {
		if e := analysis.Encode(io.Discard, g); e != nil {
			err = e
		}
	}).us())
	vals.add("analysis.events_per_exp", float64(len(g.Events)))

	docs := make([]string, len(locals))
	vals.add("timeline.encode_us", perOp(spanBatches, n, func() {
		for i, l := range locals {
			var e error
			if docs[i], e = loki.EncodeTimeline(l); e != nil {
				err = e
			}
		}
	}).us())
	bytes := 0
	for _, d := range docs {
		bytes += len(d)
	}
	vals.add("timeline.bytes_per_exp", float64(bytes))
	vals.add("timeline.decode_us", perOp(spanBatches, n, func() {
		for _, d := range docs {
			if _, e := loki.DecodeTimeline(d); e != nil {
				err = e
			}
		}
	}).us())
	vals.add("obs.trace_encode_us", perOp(spanBatches, n, func() {
		if e := fx.trace.Encode(io.Discard); e != nil {
			err = e
		}
	}).us())
	if err != nil {
		return fmt.Errorf("analysis spans: %w", err)
	}
	return nil
}

// openSpans times the set-up layers on the workload's real campaign file.
func (r *runner) openSpans(vals series) error {
	dir, err := r.freshDir()
	if err != nil {
		return err
	}
	file := r.def.file(r.cfg.seed, r.cfg.scale)
	data, err := loki.EncodeCampaignFile(file)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	n := r.spanIters(200)
	vals.add("config.parse_us", perOp(spanBatches, n, func() {
		if _, e := loki.ParseCampaignFile(data); e != nil {
			err = e
		}
	}).us())
	vals.add("config.build_us", perOp(spanBatches, n, func() {
		if _, _, e := config.Build(file); e != nil {
			err = e
		}
	}).us())
	vals.add("session.open_ms", perOp(spanBatches, n, func() {
		s, e := loki.Open(path, r.def.options(dir)...)
		if e != nil {
			err = e
			return
		}
		s.Close()
	}).ms())
	if err != nil {
		return fmt.Errorf("open spans: %w", err)
	}
	return nil
}

// hotPathSpec is the two-state machine and the four fault specifications
// over seven machines that the notify hot path is timed on: only f4
// mentions the machine that changes, so the trigger index must skip the
// other three.
const (
	hotPathSpec = `
global_state_list
  BEGIN
  A
  B
  CRASH
  EXIT
end_global_state_list
event_list
  flip
  flop
end_event_list
state A
  flip B
state B
  flop A
state CRASH
state EXIT
`
	hotPathFaults = `
f1 ((m1:X) & (m2:Y)) once
f2 ((m3:X) | (m4:Y)) always
f3 ~(m5:Z) & (m6:W) always
f4 ((solo:A) & (solo:B)) always
`
)

// notifySpans times one probe state notification (Handle.NotifyEvent:
// state tracking, timeline record, fault-expression evaluation, no
// cross-node traffic) and the fault-expression step alone.
func (r *runner) notifySpans(vals series) error {
	sm, err := loki.ParseStateMachine(hotPathSpec)
	if err != nil {
		return err
	}
	faults, err := loki.ParseFaultSpecs(hotPathFaults)
	if err != nil {
		return err
	}
	rt := loki.NewRuntime(loki.RuntimeConfig{})
	defer rt.Shutdown()
	rt.AddHost("h1", loki.ClockConfig{})
	ready := make(chan struct{})
	err = rt.Register(loki.NodeDef{
		Nickname: "solo", Spec: sm, Faults: faults,
		App: loki.Instrument(func(h *loki.Handle) {
			// A failed first notification leaves the state machine
			// uninitialized; the timed loop below then reports it.
			_ = h.NotifyEvent("A")
			close(ready)
			<-h.Done()
		}),
	})
	if err != nil {
		return err
	}
	node, err := rt.StartNode("solo", "h1")
	if err != nil {
		return err
	}
	<-ready
	h := node.Handle()
	events := [2]string{"flip", "flop"}
	i := 0
	vals.add("probe.notify_event_ns", perOp(spanBatches, r.spanIters(200000), func() {
		if e := h.NotifyEvent(events[i&1]); e != nil {
			err = e
		}
		i++
	}).ns())
	rt.KillAll()
	rt.Wait(time.Second)
	if err != nil {
		return fmt.Errorf("notify span: %w", err)
	}

	ts := faultexpr.NewTriggerSet(faults)
	views := [2]faultexpr.MapView{{"solo": "A"}, {"solo": "B"}}
	ts.Observe(views[0])
	vals.add("faultexpr.observe_change_ns", perOp(spanBatches, r.spanIters(1000000), func() {
		ts.ObserveChange("solo", views[i&1])
		i++
	}).ns())
	return nil
}

// clockSpans times the virtual scheduler's primitives under a driver, as
// a campaign worker uses them, and a virtual host clock reading.
func (r *runner) clockSpans(vals series) {
	v := clock.NewVirtual()
	v.Drive()
	defer v.Release()

	// Timers: schedule a batch the size of an experiment's timer
	// population, then park the driver past the last deadline so each one
	// fires as a tracked task. The driver's own Sleep is the +1.
	const timers = 64
	fired := 0
	per := perOp(spanBatches, r.spanIters(3000), func() {
		for i := 1; i <= timers; i++ {
			v.AfterFunc(time.Duration(i)*time.Microsecond, func() { fired++ })
		}
		v.Sleep((timers + 1) * time.Microsecond)
	})
	vals.add("clock.timer_ns", per.ns()/(timers+1))

	vals.add("clock.sleep_ns", perOp(spanBatches, r.spanIters(100000), func() { v.Sleep(time.Microsecond) }).ns())

	// Waiter wake: the driver and one tracked task hand control back and
	// forth; a round trip is two wakes and two task switches.
	ping, pong := v.NewWaiter(), v.NewWaiter()
	n := r.spanIters(100000)
	v.Go(func() {
		for i := 0; i < n*spanBatches; i++ {
			ping.Wait(-1)
			pong.Wake()
		}
	})
	vals.add("clock.waiter_wake_ns", perOp(spanBatches, n, func() {
		ping.Wake()
		pong.Wait(-1)
	}).ns()/2)

	hc := vclock.NewClock(v.Source(), vclock.ClockConfig{Offset: 4e6, DriftPPM: 70})
	vals.add("vclock.now_ns", perOp(spanBatches, r.spanIters(1000000), func() { hc.Now() }).ns())
}

// noopSpec is the smallest legal state machine, for the empty experiment.
const noopSpec = `
global_state_list
  BEGIN
  IDLE
  CRASH
  EXIT
end_global_state_list
event_list
  go
end_event_list
state IDLE
state CRASH
state EXIT
`

// emptyExperimentSpans times what every experiment pays before and after
// the application does anything: CentralDaemon.RunExperiment of three
// nodes whose body returns at once, on a virtual clock (node start and
// stop, rng reseed, inbox allocation, timeline store), and the reset
// between experiments.
func (r *runner) emptyExperimentSpans(vals series) error {
	sm, err := loki.ParseStateMachine(noopSpec)
	if err != nil {
		return err
	}
	v := clock.NewVirtual()
	rt := loki.NewRuntime(loki.RuntimeConfig{Clock: v, Source: v.Source()})
	defer rt.Shutdown()
	placement := []loki.NodeEntry{}
	for i, nick := range []string{"black", "green", "yellow"} {
		host := fmt.Sprintf("h%d", i+1)
		rt.AddHost(host, loki.ClockConfig{})
		if err := rt.Register(loki.NodeDef{Nickname: nick, Spec: sm, App: loki.Instrument(func(*loki.Handle) {})}); err != nil {
			return err
		}
		placement = append(placement, loki.NodeEntry{Nickname: nick, Host: host})
	}
	cd := loki.NewCentralDaemon(rt)
	v.Drive()
	defer v.Release()

	n := r.spanIters(2000)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := perOp(spanBatches, n, func() {
		res, e := cd.RunExperiment(placement, time.Second)
		if e != nil {
			err = e
		} else if !res.Completed {
			err = fmt.Errorf("empty experiment did not complete")
		}
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fmt.Errorf("empty experiment span: %w", err)
	}
	vals.add("core.empty_experiment_us", per.us())
	vals.add("core.empty_experiment_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(n*spanBatches))
	vals.add("core.reset_experiment_us", perOp(spanBatches, n, rt.ResetExperiment).us())
	return nil
}

// transportSpans times one frame's marshalling and a SendPeer ping-pong
// on each transport kind (median of the round trips).
func (r *runner) transportSpans(vals series) error {
	msg := transport.Message{Kind: transport.KindNote, From: "black", To: "green", FromHost: "h1", ToHost: "h2", State: "LEAD"}
	var err error
	vals.add("transport.marshal_ns", perOp(spanBatches, r.spanIters(200000), func() {
		if _, e := transport.Marshal(msg); e != nil {
			err = e
		}
	}).ns())
	if err != nil {
		return err
	}
	for _, kind := range []string{loki.TransportInproc, loki.TransportUDP, loki.TransportTCP} {
		rtt, err := pingPong(kind, r.spanIters(2000), msg)
		if err != nil {
			return fmt.Errorf("transport %s: %w", kind, err)
		}
		vals.add("transport.rtt_us."+kind, rtt.us())
	}
	return nil
}

// pingPong returns the median SendPeer round trip between two loopback
// endpoints. A lost datagram (never seen on loopback, but UDP promises
// nothing) costs a one-second wait and is left out of the median.
func pingPong(kind string, n int, msg transport.Message) (nanos, error) {
	eps, err := loki.NewLoopbackCluster(kind, map[string]string{"h1": "a", "h2": "b"})
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	a, b := eps["a"], eps["b"]
	// One slot: at most one ping is in flight.
	echoed := make(chan struct{}, 1)
	if err := b.Start(func(transport.Message) {
		// A failed echo shows up as a lost round trip below.
		_ = b.SendPeer("a", msg)
	}); err != nil {
		return 0, err
	}
	if err := a.Start(func(transport.Message) {
		select {
		case echoed <- struct{}{}:
		default:
		}
	}); err != nil {
		return 0, err
	}
	lost := time.NewTimer(time.Second)
	defer lost.Stop()
	var rtts []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := a.SendPeer("b", msg); err != nil {
			return 0, err
		}
		lost.Reset(time.Second)
		select {
		case <-echoed:
			rtts = append(rtts, float64(time.Since(start)))
		case <-lost.C:
		}
	}
	if len(rtts) < n/2 {
		return 0, fmt.Errorf("%d of %d round trips lost", n-len(rtts), n)
	}
	return nanos(median(rtts)), nil
}

// journalBatches is the median-of count for the journal spans, each of
// which is one whole pass over the journal (the artifact-writing Resume
// takes about a second at the default size).
const journalBatches = 3

// journalSpans times the journal read path and the report on a finished
// journaled campaign in dir: scan (SummarizeJournal), load (Open+Resume
// with a checkpoint only), the same with artifact writing, and the two
// halves of GenerateReport.
func (r *runner) journalSpans(vals series, dir, path string) error {
	n := float64(r.expected)
	var err error
	once := func(fn func() error) func() {
		return func() {
			if e := fn(); e != nil {
				err = e
			}
		}
	}
	vals.add("campaign.journal.scan_us_per_rec", perOp(journalBatches, 1, once(func() error {
		_, e := campaign.SummarizeJournal(dir)
		return e
	})).us()/n)
	resume := func(opts ...loki.Option) func() error {
		return func() error {
			s, e := loki.Open(path, opts...)
			if e != nil {
				return e
			}
			defer s.Close()
			_, e = s.Resume(context.Background())
			return e
		}
	}
	load := perOp(journalBatches, 1, once(resume(loki.WithCheckpoint(dir, false))))
	vals.add("campaign.journal.load_us_per_rec", load.us()/n)
	withArtifacts := perOp(journalBatches, 1, once(resume(loki.WithCheckpoint(dir, false), loki.WithArtifacts(dir))))
	vals.add("session.artifacts_us_per_rec", (withArtifacts-load).us()/n)

	var data *report.Data
	vals.add("report.collect_ms", perOp(journalBatches, 1, once(func() error {
		var e error
		data, e = report.Collect(report.Options{Dir: dir})
		return e
	})).ms())
	if err != nil {
		return fmt.Errorf("journal spans: %w", err)
	}
	vals.add("report.write_html_ms", perOp(journalBatches, 1, once(func() error { return data.WriteHTML(io.Discard) })).ms())
	if err != nil {
		return fmt.Errorf("journal spans: %w", err)
	}
	return nil
}
