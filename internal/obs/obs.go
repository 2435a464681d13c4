// Package obs is the deterministic observability layer threaded through
// every engine: structured leveled logging, a dependency-free metrics
// registry (Prometheus text format and JSON snapshots), per-experiment
// trace collection (JSONL artifacts, exportable to Chrome trace_event for
// Perfetto), and a live progress event stream.
//
// The package is deliberately dependency-free in both directions: it
// imports only the standard library, and the engines hold *Sink pointers
// whose methods are nil-receiver safe, so a campaign with observability
// disabled pays nothing — the notification hot path stays at zero
// allocations (BenchmarkObserverOverhead gates this in CI).
//
// Determinism contract: trace timestamps are supplied by the caller from
// its injected clock.Clock, never read here, so virtual-time traces are
// byte-reproducible across runs. Encode additionally sorts spans and
// events by content, so even racing identical emitters cannot reorder the
// artifact. The only place obs itself reads the wall clock is latency
// measurement (Now/ObserveSince) and log line timestamps — operational
// signals that never enter a trace artifact. lokilint's wallclock analyzer
// allowlists this package for exactly that reason.
package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Sink bundles the observability outputs a session wires into its engines.
// Any subset may be nil/empty: a nil Log discards diagnostics, a nil
// Metrics disables counters, an empty TraceDir disables tracing. The zero
// value — and a nil *Sink — is a fully disabled observer.
type Sink struct {
	// Log receives engine diagnostics; nil discards them.
	Log *Logger
	// Metrics receives counters, gauges, and histograms; nil disables them.
	Metrics *Registry
	// TraceDir, when non-empty, enables per-experiment tracing; each
	// experiment's trace is written to
	// TraceDir/<study-or-point>/expNNN.trace.jsonl.
	TraceDir string
	// TraceBuffer enables in-memory per-experiment trace capture without
	// writing local artifacts — a cluster member sets it so the
	// coordinator can pull its lane over the control protocol.
	TraceBuffer bool

	mu          sync.Mutex
	watchers    map[int]func(Event)
	nextWatch   int
	haveWatcher atomic.Bool

	onceRuntime   sync.Once
	runtimeM      *RuntimeMetrics
	onceCampaign  sync.Once
	campaignM     *CampaignMetrics
	transportMu   sync.Mutex
	transportKind map[string]*TransportMetrics
	memberMu      sync.Mutex
	memberName    map[string]*MemberMetrics
}

// Tracing reports whether per-experiment traces should be collected and
// written to TraceDir.
func (s *Sink) Tracing() bool { return s != nil && s.TraceDir != "" }

// CapturesTraces reports whether this process records spans and events at
// all — into artifacts (TraceDir) or into in-memory buffers for cluster
// relay (TraceBuffer).
func (s *Sink) CapturesTraces() bool {
	return s != nil && (s.TraceDir != "" || s.TraceBuffer)
}

// Logf forwards to the sink's logger; a nil sink or logger discards.
func (s *Sink) Logf(lv Level, component, format string, args ...interface{}) {
	if s == nil || s.Log == nil {
		return
	}
	s.Log.Logf(lv, component, format, args...)
}

// Event is one live progress notification. Events are emitted from the
// engines' analysis stages as experiments complete; watchers must return
// quickly (they run on the emitting goroutine).
type Event struct {
	// Kind is one of the Event* constants.
	Kind string
	// Point is the study or matrix point name.
	Point string
	// Index is the experiment index within the point (EventExperiment).
	Index int
	// Experiments is the point's configured experiment count.
	Experiments int
	// Completed and Accepted are the point's cumulative counts so far,
	// journaled records included.
	Completed int
	Accepted  int
	// AcceptedOne reports whether this experiment was accepted
	// (EventExperiment only).
	AcceptedOne bool
	// Member is the emitting cluster member's peer name; empty for
	// single-process runs.
	Member string
}

// Event kinds.
const (
	EventStudyStart = "study-start"
	EventExperiment = "experiment"
	EventStudyDone  = "study-done"
)

// Watch subscribes fn to the sink's progress events. The returned cancel
// removes the subscription. Nil-receiver safe (a no-op cancel).
func (s *Sink) Watch(fn func(Event)) (cancel func()) {
	if s == nil || fn == nil {
		return func() {}
	}
	s.mu.Lock()
	if s.watchers == nil {
		s.watchers = make(map[int]func(Event))
	}
	id := s.nextWatch
	s.nextWatch++
	s.watchers[id] = fn
	s.haveWatcher.Store(true)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.watchers, id)
		s.haveWatcher.Store(len(s.watchers) > 0)
		s.mu.Unlock()
	}
}

// Emit fans an event out to the watchers. Nil-receiver safe and cheap
// when nobody watches (one atomic load).
func (s *Sink) Emit(ev Event) {
	if s == nil || !s.haveWatcher.Load() {
		return
	}
	s.mu.Lock()
	fns := make([]func(Event), 0, len(s.watchers))
	for _, fn := range s.watchers {
		fns = append(fns, fn)
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// WriteTrace writes one experiment's trace artifact under TraceDir:
// TraceDir/<point>/expNNN.trace.jsonl, the point name confined under the
// trace directory exactly like Session artifact paths. A nil sink, empty
// TraceDir, or nil trace is a no-op.
func (s *Sink) WriteTrace(t *Trace) error {
	if !s.Tracing() || t == nil {
		return nil
	}
	dir := filepath.Join(s.TraceDir, filepath.Clean("/"+t.Point))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("exp%03d.trace.jsonl", t.Index))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: trace %s: %w", path, err)
	}
	return f.Close()
}

// RuntimeMetrics is the core runtime's counter bundle, resolved once so
// the notification hot path touches pre-looked-up atomics only.
type RuntimeMetrics struct {
	Notifications        *Counter // state notifications routed
	DroppedNotifications *Counter // notifications for non-executing targets
	StateChanges         *Counter // probe state transitions
	Injections           *Counter // fault injections performed
	ChaosActions         *Counter // injections dispatched to the chaos engine
	Crashes              *Counter // node crashes (faults, panics, watchdog)
	WatchdogKills        *Counter // crashes declared by the watchdog
}

// RuntimeMetrics returns the runtime counter bundle, or nil when metrics
// are disabled — the hot paths test that one pointer.
func (s *Sink) RuntimeMetrics() *RuntimeMetrics {
	if s == nil || s.Metrics == nil {
		return nil
	}
	s.onceRuntime.Do(func() {
		r := s.Metrics
		s.runtimeM = &RuntimeMetrics{
			Notifications:        r.Counter("loki_notifications_total", "State notifications routed between machines."),
			DroppedNotifications: r.Counter("loki_notifications_dropped_total", "Notifications discarded because the target was not executing."),
			StateChanges:         r.Counter("loki_state_changes_total", "Probe state-machine transitions."),
			Injections:           r.Counter("loki_injections_total", "Fault injections performed."),
			ChaosActions:         r.Counter("loki_chaos_actions_total", "Injections dispatched to the chaos action engine."),
			Crashes:              r.Counter("loki_node_crashes_total", "Node crashes (faults, panics, watchdog kills)."),
			WatchdogKills:        r.Counter("loki_watchdog_kills_total", "Crashes declared by the liveness watchdog."),
		}
	})
	return s.runtimeM
}

// CampaignMetrics is the campaign engines' bundle: experiment verdicts,
// per-phase latencies, journal durability costs, worker utilization, and
// virtual-clock activity.
type CampaignMetrics struct {
	Accepted *Counter
	Rejected *Counter
	Aborted  *Counter

	ResetSeconds   *Histogram
	SyncSeconds    *Histogram
	RunSeconds     *Histogram
	AnalyzeSeconds *Histogram

	WorkerBusySeconds    *Histogram
	JournalAppendSeconds *Histogram
	JournalFsyncSeconds  *Histogram

	VClockTimersFired *Counter
	VClockTasks       *Counter
}

// CampaignMetrics returns the campaign bundle, or nil when metrics are
// disabled.
func (s *Sink) CampaignMetrics() *CampaignMetrics {
	if s == nil || s.Metrics == nil {
		return nil
	}
	s.onceCampaign.Do(func() {
		r := s.Metrics
		s.campaignM = &CampaignMetrics{
			Accepted: r.Counter(`loki_experiments_total{result="accepted"}`, "Experiments by analysis verdict."),
			Rejected: r.Counter(`loki_experiments_total{result="rejected"}`, "Experiments by analysis verdict."),
			Aborted:  r.Counter(`loki_experiments_total{result="aborted"}`, "Experiments by analysis verdict."),

			ResetSeconds:   r.Histogram(`loki_experiment_phase_seconds{phase="reset"}`, "Experiment phase latency.", nil),
			SyncSeconds:    r.Histogram(`loki_experiment_phase_seconds{phase="sync"}`, "Experiment phase latency.", nil),
			RunSeconds:     r.Histogram(`loki_experiment_phase_seconds{phase="run"}`, "Experiment phase latency.", nil),
			AnalyzeSeconds: r.Histogram(`loki_experiment_phase_seconds{phase="analyze"}`, "Experiment phase latency.", nil),

			WorkerBusySeconds:    r.Histogram("loki_worker_experiment_seconds", "Wall-clock time a worker spent per runtime phase (worker utilization).", nil),
			JournalAppendSeconds: r.Histogram("loki_journal_append_seconds", "Checkpoint journal commit latency (write+fsync), one observation per commit round; the header is one round.", nil),
			JournalFsyncSeconds:  r.Histogram("loki_journal_fsync_seconds", "Checkpoint journal fsync latency, one observation per fsync.", nil),

			VClockTimersFired: r.Counter("loki_vclock_timers_fired_total", "Virtual-clock timers fired."),
			VClockTasks:       r.Counter("loki_vclock_tasks_total", "Tasks tracked by virtual-clock schedulers."),
		}
	})
	return s.campaignM
}

// TransportMetrics is one transport kind's frame/byte/latency bundle.
type TransportMetrics struct {
	FramesSent *Counter
	FramesRecv *Counter
	BytesSent  *Counter
	BytesRecv  *Counter
	SendErrors *Counter
	RTTSeconds *Histogram // cluster clock-sync round trips
	Retries    *Counter   // cluster protocol retransmissions
}

// Sent counts one outbound frame. Nil-receiver safe.
func (m *TransportMetrics) Sent(bytes int) {
	if m == nil {
		return
	}
	m.FramesSent.Inc()
	m.BytesSent.Add(uint64(bytes))
}

// Recv counts one inbound frame. Nil-receiver safe.
func (m *TransportMetrics) Recv(bytes int) {
	if m == nil {
		return
	}
	m.FramesRecv.Inc()
	m.BytesRecv.Add(uint64(bytes))
}

// MemberMetrics is the coordinator's per-member fleet bundle: clock-sync
// quality against that member and how much of its trace lane was merged.
type MemberMetrics struct {
	SyncRoundsOK   *Counter // sync round trips answered
	SyncRoundsLost *Counter // sync round trips that timed out
	ClockOffsetNS  *Gauge   // latest estimated member-minus-coordinator offset
	ClockRTTNS     *Gauge   // RTT of the round that produced the estimate
	TraceSpans     *Counter // spans merged from this member's lane
	TraceEvents    *Counter // events merged from this member's lane
}

// MemberMetrics returns the fleet bundle for one member peer name, or nil
// when metrics are disabled.
func (s *Sink) MemberMetrics(member string) *MemberMetrics {
	if s == nil || s.Metrics == nil {
		return nil
	}
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	if s.memberName == nil {
		s.memberName = make(map[string]*MemberMetrics)
	}
	if m, ok := s.memberName[member]; ok {
		return m
	}
	r := s.Metrics
	label := func(name string) string {
		return fmt.Sprintf(`%s{member=%q}`, name, member)
	}
	m := &MemberMetrics{
		SyncRoundsOK:   r.Counter(label("loki_member_sync_rounds_ok_total"), "Clock-sync round trips answered by the member."),
		SyncRoundsLost: r.Counter(label("loki_member_sync_rounds_lost_total"), "Clock-sync round trips to the member that timed out."),
		ClockOffsetNS:  r.Gauge(label("loki_member_clock_offset_ns"), "Estimated member process clock minus coordinator clock, min-RTT round."),
		ClockRTTNS:     r.Gauge(label("loki_member_clock_rtt_ns"), "Round-trip time of the sync round behind the offset estimate."),
		TraceSpans:     r.Counter(label("loki_member_trace_spans_total"), "Trace spans merged from the member's lane."),
		TraceEvents:    r.Counter(label("loki_member_trace_events_total"), "Trace events merged from the member's lane."),
	}
	s.memberName[member] = m
	return m
}

// TransportMetrics returns the bundle for one transport kind ("inproc",
// "udp", "tcp"), or nil when metrics are disabled.
func (s *Sink) TransportMetrics(kind string) *TransportMetrics {
	if s == nil || s.Metrics == nil {
		return nil
	}
	s.transportMu.Lock()
	defer s.transportMu.Unlock()
	if s.transportKind == nil {
		s.transportKind = make(map[string]*TransportMetrics)
	}
	if m, ok := s.transportKind[kind]; ok {
		return m
	}
	r := s.Metrics
	label := func(name string) string {
		return fmt.Sprintf(`%s{transport=%q}`, name, kind)
	}
	m := &TransportMetrics{
		FramesSent: r.Counter(label("loki_transport_frames_sent_total"), "Transport frames sent."),
		FramesRecv: r.Counter(label("loki_transport_frames_recv_total"), "Transport frames received."),
		BytesSent:  r.Counter(label("loki_transport_bytes_sent_total"), "Transport payload bytes sent."),
		BytesRecv:  r.Counter(label("loki_transport_bytes_recv_total"), "Transport payload bytes received."),
		SendErrors: r.Counter(label("loki_transport_send_errors_total"), "Transport send failures."),
		RTTSeconds: r.Histogram(label("loki_transport_rtt_seconds"), "Cluster clock-sync round-trip time.", nil),
		Retries:    r.Counter(label("loki_transport_retries_total"), "Cluster protocol retransmissions."),
	}
	s.transportKind[kind] = m
	return m
}
