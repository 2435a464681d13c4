package obs

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNilSafety: every observer entry point must be a safe no-op on nil
// receivers — that IS the disabled configuration.
func TestNilSafety(t *testing.T) {
	var s *Sink
	if s.Tracing() {
		t.Error("nil sink traces")
	}
	s.Logf(Info, "x", "hello %d", 1)
	s.Emit(Event{Kind: EventExperiment})
	s.Watch(func(Event) {})()
	if s.RuntimeMetrics() != nil || s.CampaignMetrics() != nil || s.TransportMetrics("udp") != nil {
		t.Error("nil sink returned metric bundles")
	}
	if err := s.WriteTrace(NewTrace("p", 0)); err != nil {
		t.Error(err)
	}

	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(0.1)
	h.ObserveSince(time.Now())
	var tr *Trace
	tr.Span("x", time.Time{}, time.Time{})
	tr.Event(time.Time{}, CatChaos, "x", "")
	var l *Logger
	l.Logf(Info, "x", "y")
	l.Func(Warn, "x")("z %d", 1)
	var m *TransportMetrics
	m.Sent(10)
	m.Recv(10)
	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil || r.Histogram("c", "", nil) != nil {
		t.Error("nil registry returned series")
	}
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// TestDisabledObserverZeroAlloc: the disabled observer must cost nothing
// on the notification hot paths — no allocations for a nil sink, a nil
// metric bundle, or an unwatched Emit. This is the gate behind the
// engines' "nil disables at zero cost" contract.
func TestDisabledObserverZeroAlloc(t *testing.T) {
	var s *Sink
	var tm *TransportMetrics
	var tr *Trace
	ev := Event{Kind: EventExperiment, Point: "p", Index: 1}
	cases := []struct {
		name string
		fn   func()
	}{
		{"nil-sink-emit", func() { s.Emit(ev) }},
		{"nil-sink-logf", func() { s.Logf(Debug, "core", "x") }},
		{"nil-sink-campaign-metrics", func() { _ = s.CampaignMetrics() }},
		{"nil-sink-runtime-metrics", func() { _ = s.RuntimeMetrics() }},
		{"nil-sink-transport-metrics", func() { _ = s.TransportMetrics("udp") }},
		{"nil-sink-tracing", func() { _ = s.Tracing() }},
		{"nil-transport-sent", func() { tm.Sent(64) }},
		{"nil-transport-recv", func() { tm.Recv(64) }},
		{"nil-trace-span", func() { tr.Span("x", time.Time{}, time.Time{}) }},
	}
	live := &Sink{} // enabled sink, nobody watching: one atomic load
	cases = append(cases, struct {
		name string
		fn   func()
	}{"unwatched-emit", func() { live.Emit(ev) }})
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, n)
		}
	}
}

func TestRegistryPromAndJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`x_total{result="ok"}`, "X events.")
	c.Inc()
	c.Add(2)
	r.Counter(`x_total{result="bad"}`, "X events.").Inc()
	r.Gauge("g_current", "A gauge.").Set(-7)
	h := r.Histogram("d_seconds", "A latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	// Idempotent registration returns the same series.
	if got := r.Counter(`x_total{result="ok"}`, "X events."); got != c {
		t.Error("re-registration returned a different counter")
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, w := range []string{
		"# TYPE x_total counter",
		`x_total{result="bad"} 1`,
		`x_total{result="ok"} 3`,
		"g_current -7",
		`d_seconds_bucket{le="0.001"} 1`,
		`d_seconds_bucket{le="0.01"} 2`,
		`d_seconds_bucket{le="+Inf"} 3`,
		"d_seconds_count 3",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("prom output missing %q in:\n%s", w, text)
		}
	}

	// Two writes of the same state are byte-identical (sorted output).
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("prom output not deterministic")
	}

	var j1, j2 bytes.Buffer
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Error("json snapshot not deterministic")
	}
	if !strings.Contains(j1.String(), `"x_total{result=\"ok\"}": 3`) {
		t.Errorf("json snapshot missing counter:\n%s", j1.String())
	}

	// The HTTP handler serves the same text.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != text {
		t.Error("handler output differs from WriteProm")
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("handler content type %q", ct)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("registering m as gauge after counter did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestTraceEncodeDeterministic: appending the same spans/events in
// different orders encodes to identical bytes, and Decode round-trips.
func TestTraceEncodeDeterministic(t *testing.T) {
	base := time.Unix(0, 0)
	type sp struct {
		name       string
		start, end int64
	}
	spans := []sp{{"reset", 0, 10}, {"sync-pre", 10, 30}, {"run", 30, 90}, {"analyze", 90, 90}}
	type ev struct {
		cat, name, detail string
		at                int64
	}
	events := []ev{
		{CatProbe, "black", "IDLE->ELECT", 40},
		{CatInject, "bfault1", "black", 40},
		{CatChaos, "partition", "h1|h2", 41},
		{CatVerdict, "accepted", "", 90},
	}
	build := func(perm []int, eperm []int) []byte {
		tr := NewTrace("s1", 7)
		for _, i := range perm {
			s := spans[i]
			tr.Span(s.name, base.Add(time.Duration(s.start)), base.Add(time.Duration(s.end)))
		}
		for _, i := range eperm {
			e := events[i]
			tr.Event(base.Add(time.Duration(e.at)), e.cat, e.name, e.detail)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := build([]int{0, 1, 2, 3}, []int{0, 1, 2, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		sp := rng.Perm(len(spans))
		ep := rng.Perm(len(events))
		if got := build(sp, ep); !bytes.Equal(got, want) {
			t.Fatalf("permuted insertion changed encoding:\n%s\nvs\n%s", got, want)
		}
	}

	dec, err := DecodeTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Point != "s1" || dec.Index != 7 {
		t.Errorf("decode header: %q/%d", dec.Point, dec.Index)
	}
	var re bytes.Buffer
	if err := dec.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), want) {
		t.Error("decode/encode round trip changed bytes")
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTrace("s1", 0)
	base := time.Unix(100, 0)
	tr.Span("run", base, base.Add(50*time.Millisecond))
	tr.Event(base.Add(10*time.Millisecond), CatChaos, "drop", "h1->h2")
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{`"traceEvents"`, `"ph": "X"`, `"ph": "i"`, `"dur": 50000`, `"detail": "h1->h2"`} {
		if !strings.Contains(out, w) {
			t.Errorf("chrome export missing %q in:\n%s", w, out)
		}
	}
}

func TestSinkWatchEmit(t *testing.T) {
	s := &Sink{}
	var got []Event
	cancel := s.Watch(func(ev Event) { got = append(got, ev) })
	s.Emit(Event{Kind: EventStudyStart, Point: "s1"})
	s.Emit(Event{Kind: EventExperiment, Point: "s1", Index: 0, Verdict: "accepted"})
	cancel()
	s.Emit(Event{Kind: EventStudyDone, Point: "s1"})
	if len(got) != 2 {
		t.Fatalf("watcher saw %d events, want 2", len(got))
	}
	if got[0].Kind != EventStudyStart || got[1].Kind != EventExperiment {
		t.Errorf("events out of order: %+v", got)
	}
}

func TestWriteTraceConfinesPoint(t *testing.T) {
	dir := t.TempDir()
	s := &Sink{TraceDir: dir}
	tr := NewTrace("../escape", 0)
	tr.Span("run", time.Unix(0, 0), time.Unix(1, 0))
	if err := s.WriteTrace(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape", "exp000.trace.jsonl")); err != nil {
		t.Errorf("trace not confined under dir: %v", err)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, Warn)
	l.Logf(Debug, "core", "hidden")
	l.Logf(Info, "core", "hidden too")
	l.Logf(Warn, "core", "shown %d", 1)
	l.Func(Error, "campaign")("boom")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("below-threshold records written:\n%s", out)
	}
	if !strings.Contains(out, "warn  core: shown 1") || !strings.Contains(out, "error campaign: boom") {
		t.Errorf("expected records missing:\n%s", out)
	}
	if !l.Enabled(Error) || l.Enabled(Info) {
		t.Error("Enabled thresholds wrong")
	}
	if lv, err := ParseLevel("DEBUG"); err != nil || lv != Debug {
		t.Errorf("ParseLevel(DEBUG) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}
