package main

import "fmt"

// metricKind says where a metric is reported.
type metricKind int

const (
	// endToEnd metrics are defined on every workload and never zero; they
	// are BENCHMARK.json's end_to_end list and the --trace 0 result line.
	endToEnd metricKind = iota
	// endToEndExtra metrics are end-to-end figures that exist on some
	// workloads only (or may be zero), which the result-line contract
	// cannot carry: they are printed, written to -out, and compared by
	// -compare with the bound given here.
	endToEndExtra
	// perLayer metrics come from the traced run; BENCHMARK.json's
	// per_layer list and the --trace 1 result line.
	perLayer
)

// metricDef is one catalogue entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which the metric may
	// get worse before -compare (and the driver) call it a regression.
	// Per-layer metrics have none.
	Bound float64
	// Exact marks a metric that two runs of one commit at one seed must
	// reproduce to the last digit on the workloads in ExactOn (simulated
	// statistics, per-experiment counts): -compare fails on any difference
	// and does not consult Bound there.
	ExactOn []string
	Kind    metricKind
}

var virtualWorkloads = []string{wlVirtualElection, wlJournaledChaos}

// metricCatalogue lists every metric the harness prints, in print order.
// What each one means, and which end-to-end metric each layer metric is
// expected to move on which workload, is in bench/README.md.
var metricCatalogue = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "exp_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_exp", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_exp", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_exp", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "accepted_share", Unit: "share", Better: "higher", Bound: 0.05,
		ExactOn: []string{wlVirtualElection, wlJournaledChaos, wlResumeReport}},

	{Name: "failed_share", Unit: "share", Better: "lower", Kind: endToEndExtra,
		ExactOn: []string{wlVirtualElection, wlJournaledChaos, wlClusterUDP, wlResumeReport}},
	{Name: "journal_bytes_per_exp", Unit: "bytes", Better: "lower", Bound: 0.005, Kind: endToEndExtra},
	{Name: "resume_rec_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Kind: endToEndExtra},
	{Name: "report_ms", Unit: "ms", Better: "lower", Bound: 0.20, Kind: endToEndExtra},

	{Name: "campaign.worker_busy_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.analyze_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.phase.reset_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "campaign.phase.sync_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "campaign.phase.run_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "campaign.exp_interval_us_p50", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.exp_interval_us_tail", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.unattributed_pct", Unit: "%", Better: "lower", Kind: perLayer},
	{Name: "campaign.journal.append_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.journal.fsync_us_per_exp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.journal.fsyncs_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "campaign.journal.scan_us_per_rec", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "campaign.journal.load_us_per_rec", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "session.artifacts_us_per_rec", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "session.open_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "config.parse_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "config.build_us", Unit: "us", Better: "lower", Kind: perLayer},

	{Name: "core.notifications_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "core.notifications_dropped_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "core.state_changes_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "core.injections_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "core.crashes_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "chaos.actions_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "clock.timers_fired_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "clock.tasks_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "core.empty_experiment_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "core.empty_experiment_allocs", Unit: "count", Better: "lower", Kind: perLayer},
	{Name: "core.reset_experiment_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "probe.notify_event_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "faultexpr.observe_change_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "clock.timer_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "clock.waiter_wake_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "clock.sleep_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "vclock.now_ns", Unit: "ns", Better: "lower", Kind: perLayer},

	{Name: "clocksync.estimate_all_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "analysis.build_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "analysis.check_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "analysis.encode_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "analysis.events_per_exp", Unit: "count", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},
	{Name: "timeline.encode_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "timeline.decode_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "timeline.bytes_per_exp", Unit: "bytes", Better: "lower", Kind: perLayer, ExactOn: virtualWorkloads},

	{Name: "transport.rtt_us.inproc", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "transport.rtt_us.udp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "transport.rtt_us.tcp", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "transport.marshal_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "transport.frames_per_exp", Unit: "count", Better: "lower", Kind: perLayer},
	{Name: "transport.bytes_per_exp", Unit: "bytes", Better: "lower", Kind: perLayer},
	{Name: "transport.send_errors_per_exp", Unit: "count", Better: "lower", Kind: perLayer},
	{Name: "transport.sync_rtt_us_mean", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "transport.retries_per_exp", Unit: "count", Better: "lower", Kind: perLayer},

	{Name: "obs.metrics_overhead_pct", Unit: "%", Better: "lower", Kind: perLayer},
	{Name: "obs.trace_encode_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "report.collect_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "report.write_html_ms", Unit: "ms", Better: "lower", Kind: perLayer},
}

// metricsOf returns the catalogue entries of one kind, in print order.
func metricsOf(kind metricKind) []metricDef {
	var out []metricDef
	for _, m := range metricCatalogue {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range metricCatalogue {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func (m metricDef) exactOn(workload string) bool {
	for _, w := range m.ExactOn {
		if w == workload {
			return true
		}
	}
	return false
}

// Sample is one reported metric: the median over the run's repeats, with
// the quartiles and the number of repeats beside it. Metrics measured once
// (counts, peak memory) have N 1 and both quartiles equal to the value.
type Sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Note qualifies the value where the name alone cannot, e.g. which
	// percentile a tail is.
	Note string `json:"note,omitempty"`
}

// Result is one run of one workload, traced or not.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Sample `json:"metrics"`
	// Checks lists the output checks that failed; empty when Correct.
	Checks []string `json:"checks,omitempty"`
	// Verdicts is a digest of the per-experiment verdict vector, compared
	// between the untraced and the traced run of a virtual workload.
	Verdicts string `json:"verdicts"`
}

// set records a metric from its per-repeat values. The name must be in the
// catalogue: a typo here would otherwise print a metric nobody compares.
func (r *Result) set(name string, values ...float64) {
	def, ok := lookupMetric(name)
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	q1, q3 := quartiles(values)
	r.Metrics[name] = Sample{Value: median(values), Unit: def.Unit, Q1: q1, Q3: q3, N: len(values)}
}

func (r *Result) note(name, note string) {
	s := r.Metrics[name]
	s.Note = note
	r.Metrics[name] = s
}

func (r *Result) fail(format string, args ...interface{}) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}
