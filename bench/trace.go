package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	loki "repro"
	"repro/internal/obs"
)

// The traced run: the same campaign with WithMetrics and WithObserver on,
// alternated with observer-off repeats so the difference between the two
// is the tracing overhead. Per-layer figures come from the registry the
// program already exports (Session.Metrics()) divided by the experiments
// run, plus the harness's own spans (layers.go). The registry is read with
// LocalSnapshot, not Snapshot: a loopback cluster's members share this
// process's registry and the coordinator also imports their view of it
// member-labelled, so Snapshot would carry every series three more times.

// observers returns the options that turn the observers on, and a
// function returning the host times at which experiments completed.
func observers() ([]loki.Option, func() []time.Time) {
	var (
		mu   sync.Mutex
		done []time.Time
	)
	watch := func(ev loki.ProgressEvent) {
		if ev.Kind != loki.EventExperiment {
			return
		}
		now := time.Now()
		mu.Lock()
		done = append(done, now)
		mu.Unlock()
	}
	return []loki.Option{loki.WithMetrics(), loki.WithObserver(watch)}, func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), done...)
	}
}

// baseName strips a series name's label set.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// counterSum adds up every counter series of one base name (a base name
// has one series per label set, e.g. per transport kind).
func counterSum(snap obs.Snapshot, base string) float64 {
	var sum uint64
	for name, v := range snap.Counters {
		if baseName(name) == base {
			sum += v
		}
	}
	return float64(sum)
}

// histTotal adds up sum and count over the series whose name starts with
// prefix (a base name, or a base name with the opening of its label set).
func histTotal(snap obs.Snapshot, prefix string) (sum float64, count uint64) {
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, prefix) {
			sum += h.Sum
			count += h.Count
		}
	}
	return sum, count
}

// intervals returns the gaps between consecutive completion times, µs.
func intervals(done []time.Time) []float64 {
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var out []float64
	for i := 1; i < len(done); i++ {
		out = append(out, us(done[i].Sub(done[i-1])))
	}
	return out
}

// registryLayers turns one traced repeat's registry snapshot into
// per-experiment layer figures.
func (r *runner) registryLayers(vals series, rep repeat, snap obs.Snapshot, done []time.Time) (tailPct float64) {
	n := float64(rep.attempted)
	perExpUS := func(seconds float64) float64 { return seconds * 1e6 / n }
	phase := func(name string) float64 {
		sum, _ := histTotal(snap, fmt.Sprintf(`loki_experiment_phase_seconds{phase=%q}`, name))
		return perExpUS(sum)
	}
	reset, syncUS, run := phase("reset"), phase("sync"), phase("run")
	vals.add("campaign.phase.reset_us_per_exp", reset)
	vals.add("campaign.phase.sync_us_per_exp", syncUS)
	vals.add("campaign.phase.run_us_per_exp", run)
	vals.add("campaign.analyze_us_per_exp", phase("analyze"))

	busySum, busyCount := histTotal(snap, "loki_worker_experiment_seconds")
	busy := perExpUS(busySum)
	if busyCount == 0 {
		// The clustered engine has no worker pool and does not export the
		// worker histogram; its coordinator runs the phases back to back
		// in host time, so their sum is the busy time.
		busy = reset + syncUS + run
	}
	vals.add("campaign.worker_busy_us_per_exp", busy)

	appendSum, _ := histTotal(snap, "loki_journal_append_seconds")
	fsyncSum, fsyncs := histTotal(snap, "loki_journal_fsync_seconds")
	vals.add("campaign.journal.append_us_per_exp", perExpUS(appendSum))
	vals.add("campaign.journal.fsync_us_per_exp", perExpUS(fsyncSum))
	vals.add("campaign.journal.fsyncs_per_exp", float64(fsyncs)/n)

	wall := us(rep.wall) / n
	vals.add("campaign.unattributed_pct", 100*(wall-busy/float64(r.def.workers)-perExpUS(appendSum))/wall)

	gaps := intervals(done)
	vals.add("campaign.exp_interval_us_p50", median(gaps))
	tailUS, tailPct := tail(gaps)
	vals.add("campaign.exp_interval_us_tail", tailUS)

	for metric, base := range map[string]string{
		"core.notifications_per_exp":         "loki_notifications_total",
		"core.notifications_dropped_per_exp": "loki_notifications_dropped_total",
		"core.state_changes_per_exp":         "loki_state_changes_total",
		"core.injections_per_exp":            "loki_injections_total",
		"core.crashes_per_exp":               "loki_node_crashes_total",
		"chaos.actions_per_exp":              "loki_chaos_actions_total",
		"clock.timers_fired_per_exp":         "loki_vclock_timers_fired_total",
		"clock.tasks_per_exp":                "loki_vclock_tasks_total",
		"transport.frames_per_exp":           "loki_transport_frames_sent_total",
		"transport.bytes_per_exp":            "loki_transport_bytes_sent_total",
		"transport.send_errors_per_exp":      "loki_transport_send_errors_total",
		"transport.retries_per_exp":          "loki_transport_retries_total",
	} {
		vals.add(metric, counterSum(snap, base)/n)
	}
	rttSum, rtts := histTotal(snap, "loki_transport_rtt_seconds")
	rtt := 0.0
	if rtts > 0 {
		rtt = rttSum * 1e6 / float64(rtts)
	}
	vals.add("transport.sync_rtt_us_mean", rtt)
	return tailPct
}

// overheadPct is the tracing overhead: how much slower the observer-on
// repeats ran than the observer-off ones, as a share of the latter.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (u - median(traced)) / u
}

// zeroUnexercised gives every per-layer metric the workload does not
// exercise the value 0, so each traced result carries the whole list.
func zeroUnexercised(res *Result) {
	for _, m := range metricsOf(perLayer) {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.set(m.Name, 0)
		}
	}
}

// microSpans runs the harness's own spans that need no journal.
func (r *runner) microSpans(vals series) error {
	fx, err := r.captureFixture()
	if err != nil {
		return err
	}
	if err := r.analysisSpans(vals, fx); err != nil {
		return err
	}
	if err := r.openSpans(vals); err != nil {
		return err
	}
	if err := r.notifySpans(vals); err != nil {
		return err
	}
	r.clockSpans(vals)
	if err := r.emptyExperimentSpans(vals); err != nil {
		return err
	}
	return r.transportSpans(vals)
}

// runTraced is the attribution run of a campaign workload.
func (r *runner) runTraced() (*Result, error) {
	if r.def.name == wlResumeReport {
		return r.runResumeReport(true)
	}
	res := newResult(r.cfg, true)
	vals := series{}
	var untraced, traced []float64
	var tailPct float64
	var timed time.Duration
	for n := 0; n < 1 || timed.Seconds() < r.cfg.seconds; n++ {
		off, err := r.runOnce(nil, nil)
		if err != nil {
			return nil, err
		}
		r.checkRepeat(res, off.outcome, fmt.Sprintf("pair %d, observers off", n+1))
		untraced = append(untraced, float64(off.attempted)/off.wall.Seconds())

		opts, completions := observers()
		var snap obs.Snapshot
		on, err := r.runOnce(opts, func(s *loki.Session) { snap = s.Metrics().LocalSnapshot() })
		if err != nil {
			return nil, err
		}
		r.checkRepeat(res, on.outcome, fmt.Sprintf("pair %d, observers on", n+1))
		traced = append(traced, float64(on.attempted)/on.wall.Seconds())
		done := completions()
		if len(done) != on.attempted {
			res.fail("pair %d: observer saw %d completion events for %d experiments", n+1, len(done), on.attempted)
		}
		tailPct = r.registryLayers(vals, on, snap, done)

		timed += off.wall + on.wall
		res.Attempted += off.attempted + on.attempted
		res.Failed += off.failed + on.failed
	}
	vals.add("obs.metrics_overhead_pct", overheadPct(untraced, traced))
	if r.def.journaled {
		// r.last is the final traced repeat's directory: a finished
		// journal with its campaign file beside it.
		if err := r.journalSpans(vals, r.last, r.last+"/campaign.json"); err != nil {
			return nil, err
		}
	}
	if err := r.microSpans(vals); err != nil {
		return nil, err
	}
	vals.into(res)
	res.note("campaign.exp_interval_us_tail", fmt.Sprintf("p%.4g", tailPct))
	zeroUnexercised(res)
	return res, nil
}

// traceResume is resume-report's attribution run: observer-off and
// observer-on cycles alternate over the set-up's directory. Resume runs no
// experiment, so the registry must stay empty of them — checked here.
func (r *runner) traceResume(res *Result, st *resumeState) error {
	vals := series{}
	var untraced, traced []float64
	var timed time.Duration
	for n := 0; n < 1 || timed.Seconds() < r.cfg.seconds; n++ {
		off, err := r.resumeOnce(res, st, fmt.Sprintf("pair %d, observers off", n+1), nil, nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, float64(off.attempted)/off.resume.Seconds())

		opts, completions := observers()
		var snap obs.Snapshot
		on, err := r.resumeOnce(res, st, fmt.Sprintf("pair %d, observers on", n+1), opts, func(s *loki.Session) { snap = s.Metrics().LocalSnapshot() })
		if err != nil {
			return err
		}
		traced = append(traced, float64(on.attempted)/on.resume.Seconds())
		if _, ran := histTotal(snap, "loki_worker_experiment_seconds"); ran != 0 || len(completions()) != 0 {
			res.fail("pair %d: Resume of a finished campaign executed %d experiments", n+1, ran)
		}
		timed += off.wall + on.wall
		res.Attempted += off.attempted + on.attempted
		res.Failed += off.failed + on.failed
	}
	vals.add("obs.metrics_overhead_pct", overheadPct(untraced, traced))
	if err := r.journalSpans(vals, st.dir, st.path); err != nil {
		return err
	}
	if err := r.microSpans(vals); err != nil {
		return err
	}
	vals.into(res)
	zeroUnexercised(res)
	return nil
}

// mark flags a figure outside its tolerance in the attribution table.
func mark(bad bool) string {
	if bad {
		return "  <-- outside tolerance"
	}
	return ""
}

// Tolerances of the add-up checks in the attribution table.
const (
	unattributedMaxPct = 15.0
	analyzeSumTolPct   = 25.0
)

// printAttribution prints where an experiment's host time went, and
// whether the layer figures add up to the end-to-end one.
func printAttribution(w io.Writer, res *Result, def *workloadDef) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	busy := v("campaign.worker_busy_us_per_exp") / float64(def.workers)
	journal := v("campaign.journal.append_us_per_exp")
	unattr := v("campaign.unattributed_pct")
	fmt.Fprintf(w, "attribution %s (host us per experiment, traced run)\n", res.Workload)
	if busy+journal == 0 {
		fmt.Fprintf(w, "  no experiment is executed by this workload; see the journal and report layers\n")
	} else {
		wall := (busy + journal) / (1 - unattr/100)
		fmt.Fprintf(w, "  wall                          %10.1f\n", wall)
		fmt.Fprintf(w, "  = worker busy / %d workers     %10.1f  %5.1f %%\n", def.workers, busy, 100*busy/wall)
		fmt.Fprintf(w, "  + journal append              %10.1f  %5.1f %%\n", journal, 100*journal/wall)
		fmt.Fprintf(w, "  + unattributed                %10.1f  %5.1f %%%s\n", wall-busy-journal, unattr,
			mark(unattr > unattributedMaxPct))
	}
	analyze := v("campaign.analyze_us_per_exp")
	est, build, check := v("clocksync.estimate_all_us"), v("analysis.build_us"), v("analysis.check_us")
	sum := est + build + check
	fmt.Fprintf(w, "  analyze (pipelined, not in wall) %7.1f\n", analyze)
	fmt.Fprintf(w, "  = clocksync.estimate_all      %10.1f\n", est)
	fmt.Fprintf(w, "  + analysis.build              %10.1f\n", build)
	fmt.Fprintf(w, "  + analysis.check              %10.1f\n", check)
	if analyze > 0 {
		off := 100 * (sum - analyze) / analyze
		fmt.Fprintf(w, "  layer sum                     %10.1f  %+5.1f %% of analyze%s\n", sum, off,
			mark(off > analyzeSumTolPct || off < -analyzeSumTolPct))
	}
}
