package loki

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/report"
)

// Session-level observability: the options below configure one obs.Sink
// that every engine the session runs — in-process pool, matrix, cluster
// member — shares. With no observability option the sink stays nil and the
// engines' instrumentation sites cost a single nil check (zero
// allocations on the notification hot path).

// ProgressEvent is one live campaign progress notification, delivered to
// WithObserver / Session.Watch callbacks as experiments complete. On a
// journaled run an experiment event means the record is fsync'd: the
// journal's committer emits it after the commit round that wrote it, so
// events arrive in bursts, one per round.
type ProgressEvent = obs.Event

// Progress event kinds.
const (
	EventStudyStart = obs.EventStudyStart
	EventExperiment = obs.EventExperiment
	EventStudyDone  = obs.EventStudyDone
)

// MetricsRegistry is the session's metric registry: Prometheus text via
// WriteProm/Handler, deterministic JSON via Snapshot/WriteJSON.
type MetricsRegistry = obs.Registry

// LogLevel is the structured logger's severity threshold.
type LogLevel = obs.Level

// sink lazily materializes the session's observability sink on the opened
// campaign copy (engines see it through Campaign.Obs).
func (s *Session) sink() *obs.Sink {
	if s.c.Obs == nil {
		s.c.Obs = &obs.Sink{}
	}
	return s.c.Obs
}

// WithObserver subscribes fn to the session's live progress events —
// study start/done and every completed experiment, cumulative counts
// included — for the session's lifetime. Callbacks run on the engines'
// analysis goroutines, or on a journaled run on the journal's committer,
// and must return quickly. Use Session.Watch for a cancellable
// subscription.
func WithObserver(fn func(ProgressEvent)) Option {
	return func(s *Session) error {
		if fn == nil {
			return fmt.Errorf("loki: WithObserver(nil)")
		}
		s.sink().Watch(fn)
		return nil
	}
}

// WithMetrics enables the session's metric registry: experiment verdicts,
// per-phase latencies, transport traffic, journal fsync latency, worker
// utilization. Read it through Session.Metrics; with WithArtifacts, Run
// also snapshots it to DIR/metrics.json.
func WithMetrics() Option {
	return func(s *Session) error {
		sk := s.sink()
		if sk.Metrics == nil {
			sk.Metrics = obs.NewRegistry()
		}
		return nil
	}
}

// WithTracing collects one structured trace per experiment — phase spans
// and chaos/transport/probe point events, timestamped by the campaign's
// injected clock so virtual-time traces are byte-reproducible — under
// dir/<study-or-point>/expNNN.trace.jsonl. An empty dir derives
// ARTIFACTS/traces from WithArtifacts (in either option order).
func WithTracing(dir string) Option {
	return func(s *Session) error {
		s.traceReq = true
		s.traceDir = dir
		return nil
	}
}

// WithTraceBuffer enables in-memory per-experiment trace capture without
// writing local artifacts — how a cluster member (lokirun -name -trace, no -out)
// records its lane so the coordinator can pull it over the control
// protocol and merge it into the campaign's trace artifacts. Implied by
// WithTracing; a member with neither set answers trace pulls with an
// empty lane and logs a warning.
func WithTraceBuffer() Option {
	return func(s *Session) error {
		s.sink().TraceBuffer = true
		return nil
	}
}

// WithLogging sends the engines' structured diagnostics at or above min
// to w. Levels come from ParseLogLevel.
func WithLogging(w io.Writer, min LogLevel) Option {
	return func(s *Session) error {
		if w == nil {
			return fmt.Errorf("loki: WithLogging(nil writer)")
		}
		s.sink().Log = obs.NewLogger(w, min)
		return nil
	}
}

// ParseLogLevel parses "debug", "info", "warn", or "error" — the
// vocabulary of lokirun's -v flag.
func ParseLogLevel(v string) (LogLevel, error) { return obs.ParseLevel(v) }

// Trace is one experiment's decoded trace artifact. Trace.WriteChrome
// converts it to Chrome trace_event JSON for https://ui.perfetto.dev.
type Trace = obs.Trace

// DecodeTrace reads one expNNN.trace.jsonl artifact written by
// WithTracing.
func DecodeTrace(r io.Reader) (*Trace, error) { return obs.DecodeTrace(r) }

// Watch subscribes fn to the session's live progress events; the returned
// cancel removes the subscription. Safe to call before, during, or
// between runs — `lokirun -progress` is a Watch feeding a ticker. On a
// journaled run the events come from the journal's committer, after the
// records they report are durable, in bursts per commit round.
func (s *Session) Watch(fn func(ProgressEvent)) (cancel func()) {
	if s == nil || s.closed || fn == nil {
		return func() {}
	}
	return s.sink().Watch(fn)
}

// Metrics returns the session's metric registry, or nil when WithMetrics
// was not applied.
func (s *Session) Metrics() *MetricsRegistry {
	if s == nil || s.c == nil || s.c.Obs == nil {
		return nil
	}
	return s.c.Obs.Metrics
}

// resolveTracing finalizes WithTracing after all options ran, so the
// empty-dir form can inherit the artifact directory regardless of option
// order.
func (s *Session) resolveTracing() error {
	if !s.traceReq {
		return nil
	}
	dir := s.traceDir
	if dir == "" {
		if s.artifacts == "" {
			return fmt.Errorf("loki: WithTracing(\"\") needs WithArtifacts to derive a trace directory")
		}
		dir = filepath.Join(s.artifacts, "traces")
	}
	s.sink().TraceDir = dir
	return nil
}

// writeMetricsSnapshot persists the registry as deterministic JSON next
// to the run's other artifacts.
func (s *Session) writeMetricsSnapshot() error {
	reg := s.Metrics()
	if s.artifacts == "" || reg == nil {
		return nil
	}
	if err := os.MkdirAll(s.artifacts, 0o755); err != nil {
		return err
	}
	return obs.WriteArtifact(filepath.Join(s.artifacts, "metrics.json"), 0o666, reg.WriteJSON)
}

// writeReport renders report.html/report.json for the run res, handing in
// the journal's summary (reportJournal) so that the journal is not read
// again. Auto-emission is best-effort: a run that produced no reportable
// artifacts simply writes no report.
func (s *Session) writeReport(res *SessionResult) error {
	opt := report.Options{Dir: s.artifacts}
	if s.c.Checkpoint != nil {
		opt.Journal = s.reportJournal(res)
	}
	if _, err := report.Generate(opt); err != nil && !errors.Is(err, report.ErrNoArtifacts) {
		return err
	}
	return nil
}

// reportJournal is the summary GenerateReport would read from the run's
// journal, built from res: the records the run holds and the journaled
// ones it did not cover, under the header's (c.Name,
// ConfigFingerprint(c)), which the journal's open verified.
func (s *Session) reportJournal(res *SessionResult) *campaign.JournalSummary {
	var journalOnly []campaign.RecordSummary
	if res.Campaign != nil {
		journalOnly = res.Campaign.JournalOnly
	} else if res.Matrix != nil {
		journalOnly = res.Matrix.JournalOnly
	}
	return campaign.SummarizeRecords(s.c.Name, campaign.ConfigFingerprint(s.c), func(add func(campaign.RecordSummary)) {
		res.eachStudy(func(name string, sr *StudyOutcome) {
			for _, rec := range sr.Records {
				add(campaign.Summarize(name, rec))
			}
		})
		for _, r := range journalOnly {
			add(r)
		}
	})
}

// GenerateReport renders report.html and report.json from the artifacts
// under dir — checkpoint journal, metrics.json, traces/ — without
// running anything, returning the HTML path. `lokirun -report` is this
// function.
func GenerateReport(dir string) (string, error) {
	return report.Generate(report.Options{Dir: dir})
}
