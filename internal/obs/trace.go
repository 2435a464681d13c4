package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is one experiment's span tree plus point events. Timestamps come
// from the emitting engine's injected clock.Clock — under virtual time
// they are simulated nanoseconds, reproducible across runs — and are
// stored as int64 nanoseconds since the Unix epoch.
//
// The span tree is implicit: a span whose interval contains another's is
// its ancestor, exactly the nesting rule Chrome trace viewers apply to
// complete ("X") events on one thread. Phases (reset, sync, run, analyze)
// therefore render as a tree under the experiment root without parent
// bookkeeping in the hot path.
//
// All mutating methods are nil-receiver safe no-ops, so engines call them
// unconditionally through an atomically-loaded pointer that is nil when
// tracing is off.
type Trace struct {
	// Point is the study or matrix point name; Index the experiment index.
	Point string
	Index int

	mu     sync.Mutex
	spans  []Span
	events []TracePoint
}

// Span is a named interval: an experiment phase or a per-fault injection
// window. Member is empty for spans recorded by the owning process (the
// coordinator, in clustered runs) and carries the member peer name for
// spans merged in from a remote lane via Merge.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns
	End    int64  `json:"end"`   // ns
	Member string `json:"member,omitempty"`
}

// TracePoint is an instantaneous event: a chaos action, transport frame,
// probe state change, injection, crash, or verdict. Member is set only on
// events merged from a remote member lane.
type TracePoint struct {
	At     int64  `json:"at"` // ns
	Cat    string `json:"cat"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Member string `json:"member,omitempty"`
}

// Event categories.
const (
	CatPhase     = "phase"
	CatProbe     = "probe"
	CatInject    = "inject"
	CatChaos     = "chaos"
	CatTransport = "transport"
	CatNode      = "node"
	CatVerdict   = "verdict"
)

// NewTrace returns an empty trace for one experiment.
func NewTrace(point string, index int) *Trace {
	return &Trace{Point: point, Index: index}
}

// Span records a completed interval. Nil-receiver safe.
func (t *Trace) Span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
}

// Event records an instantaneous event. Nil-receiver safe.
func (t *Trace) Event(at time.Time, cat, name, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, TracePoint{At: at.UnixNano(), Cat: cat, Name: name, Detail: detail})
	t.mu.Unlock()
}

// sorted returns content-sorted copies of the spans and events. Sorting is
// by full content — (Start, End, Name) and (At, Cat, Name, Detail) — so
// the encoded artifact is a pure function of the trace's contents: even
// if concurrent emitters appended in different orders across two runs,
// equal content encodes to equal bytes.
func (t *Trace) sorted() ([]Span, []TracePoint) {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	events := append([]TracePoint(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Member < b.Member
	})
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.Member < b.Member
	})
	return spans, events
}

// Merge folds another trace into t as a member lane: every span and event
// from other is stamped with the member name (unless it already carries
// one from an earlier merge) and shifted by offset, which rebases the
// member's timestamps onto t's clock. A coordinator that estimated the
// member's clock to run θ ahead of its own passes offset = -θ.
// Nil-receiver and nil-argument safe.
func (t *Trace) Merge(member string, other *Trace, offset time.Duration) {
	if t == nil || other == nil {
		return
	}
	d := offset.Nanoseconds()
	spans, events := other.sorted()
	t.mu.Lock()
	for _, s := range spans {
		if s.Member == "" {
			s.Member = member
		}
		s.Start += d
		s.End += d
		t.spans = append(t.spans, s)
	}
	for _, e := range events {
		if e.Member == "" {
			e.Member = member
		}
		e.At += d
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Members returns the sorted distinct member lane names present in the
// trace. The owning process's lane (empty member) is not listed.
func (t *Trace) Members() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	set := map[string]bool{}
	for _, s := range t.spans {
		if s.Member != "" {
			set[s.Member] = true
		}
	}
	for _, e := range t.events {
		if e.Member != "" {
			set[e.Member] = true
		}
	}
	t.mu.Unlock()
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spans returns a content-sorted copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	spans, _ := t.sorted()
	return spans
}

// Counts returns the number of spans and events currently recorded.
func (t *Trace) Counts() (spans, events int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), len(t.events)
}

// traceHeader is the artifact's first line. Members lists the merged
// member lanes (omitted for single-process traces, keeping pre-merge
// artifacts byte-identical to earlier versions).
type traceHeader struct {
	Trace   string   `json:"trace"` // format marker + version, "loki/1"
	Point   string   `json:"point"`
	Index   int      `json:"index"`
	Spans   int      `json:"spans"`
	Events  int      `json:"events"`
	Members []string `json:"members,omitempty"`
}

type traceLine struct {
	Span  *Span       `json:"span,omitempty"`
	Event *TracePoint `json:"event,omitempty"`
}

// Encode writes the trace as JSONL: a header line, then spans, then
// events, all content-sorted. Equal traces encode byte-identically.
func (t *Trace) Encode(w io.Writer) error {
	spans, events := t.sorted()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Trace: "loki/1", Point: t.Point, Index: t.Index,
		Spans: len(spans), Events: len(events),
		Members: t.Members(),
	}); err != nil {
		return err
	}
	for i := range spans {
		if err := enc.Encode(traceLine{Span: &spans[i]}); err != nil {
			return err
		}
	}
	for i := range events {
		if err := enc.Encode(traceLine{Event: &events[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeString returns the Encode artifact as a string, for shipping a
// trace over a wire protocol.
func (t *Trace) EncodeString() (string, error) {
	if t == nil {
		return "", nil
	}
	var b strings.Builder
	if err := t.Encode(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// DecodeTraceString parses an artifact produced by EncodeString. An empty
// string decodes to nil (the wire form of "no trace recorded").
func DecodeTraceString(s string) (*Trace, error) {
	if s == "" {
		return nil, nil
	}
	return DecodeTrace(strings.NewReader(s))
}

// DecodeTrace parses an artifact produced by Encode. Every line after the
// header must be one span or one event, and there must be exactly as many
// of each as the header says: a cut-short artifact is an error, not a
// shorter trace.
func DecodeTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Trace == "" {
		return nil, fmt.Errorf("obs: not a trace artifact")
	}
	if hdr.Trace != "loki/1" {
		return nil, fmt.Errorf("obs: unsupported trace format %q", hdr.Trace)
	}
	t := NewTrace(hdr.Point, hdr.Index)
	for sc.Scan() {
		var line traceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("obs: bad trace line: %w", err)
		}
		switch {
		case line.Span != nil && line.Event == nil:
			t.spans = append(t.spans, *line.Span)
		case line.Event != nil && line.Span == nil:
			t.events = append(t.events, *line.Event)
		default:
			return nil, fmt.Errorf("obs: trace line %d is neither one span nor one event", 2+len(t.spans)+len(t.events))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.spans) != hdr.Spans || len(t.events) != hdr.Events {
		return nil, fmt.Errorf("obs: trace holds %d spans and %d events, its header says %d and %d (truncated?)",
			len(t.spans), len(t.events), hdr.Spans, hdr.Events)
	}
	return t, nil
}

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the "JSON Array Format" every Chrome-derived viewer and Perfetto's
// legacy importer accept). Timestamps are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome exports the trace in Chrome trace_event format, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each lane — the owning
// process first, then merged member lanes in sorted name order — becomes
// its own pid (named via process_name metadata); within a lane, spans
// become complete ("X") events on tid 1 — the viewer nests them by
// interval containment — and point events become thread-scoped instants
// ("i") on tid 2, grouped by category. Merged member timestamps were
// rebased onto the owner's clock by Merge, so lanes render time-aligned.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans, events := t.sorted()
	// Rebase on the earliest timestamp so virtual-epoch and wall-clock
	// traces both start near t=0 in the viewer.
	var t0 int64
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	if len(events) > 0 && (len(spans) == 0 || events[0].At < t0) {
		t0 = events[0].At
	}
	us := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	// pid 1 is the owning process's lane; merged members get 2, 3, ...
	// in sorted name order so lane assignment is deterministic.
	pids := map[string]int{"": 1}
	for i, m := range t.Members() {
		pids[m] = 2 + i
	}
	out := make([]chromeEvent, 0, len(spans)+len(events)+len(pids))
	for name, pid := range pids {
		label := name
		if label == "" {
			label = "coordinator"
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]string{"name": label},
		})
	}
	// Metadata order from map iteration is random; fix it.
	sort.Slice(out, func(i, j int) bool { return out[i].Pid < out[j].Pid })
	for _, s := range spans {
		out = append(out, chromeEvent{
			Name: s.Name, Cat: CatPhase, Ph: "X",
			Ts: us(s.Start), Dur: float64(s.End-s.Start) / 1e3,
			Pid: pids[s.Member], Tid: 1,
		})
	}
	for _, e := range events {
		ev := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "i", S: "t",
			Ts: us(e.At), Pid: pids[e.Member], Tid: 2,
		}
		if e.Detail != "" {
			ev.Args = map[string]string{"detail": e.Detail}
		}
		out = append(out, ev)
	}
	doc := struct {
		TraceEvents []chromeEvent     `json:"traceEvents"`
		Metadata    map[string]string `json:"metadata"`
	}{
		TraceEvents: out,
		Metadata: map[string]string{
			"point": t.Point,
			"index": fmt.Sprintf("%d", t.Index),
		},
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
