package report

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestCollectMetricsAndTraces builds an artifact directory by hand — a
// fleet metrics snapshot plus one merged trace — and checks the model
// Collect derives: member rows, transport rows keyed (transport,
// member), phase aggregation across lanes, and the HTML render.
func TestCollectMetricsAndTraces(t *testing.T) {
	dir := t.TempDir()

	reg := obs.NewRegistry()
	reg.Counter(`loki_transport_frames_sent_total{transport="udp"}`, "").Add(40)
	reg.Histogram(`loki_transport_rtt_seconds{transport="udp"}`, "", nil).Observe(0.002)
	member := obs.NewRegistry()
	member.Counter(`loki_transport_frames_sent_total{transport="udp"}`, "").Add(25)
	reg.ImportSnapshot("beta", member.LocalSnapshot())
	sink := &obs.Sink{Metrics: reg}
	mm := sink.MemberMetrics("beta")
	mm.SyncRoundsOK.Add(16)
	mm.ClockOffsetNS.Set(-4200)
	mm.TraceSpans.Add(3)
	mf, err := os.Create(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	base := time.Unix(0, 0)
	tr := obs.NewTrace("netsplit/fast/seed1", 0)
	tr.Span("experiment", base, base.Add(30*time.Millisecond))
	lane := obs.NewTrace("netsplit/fast/seed1", 0)
	lane.Span("experiment", base, base.Add(31*time.Millisecond))
	tr.Merge("beta", lane, 0)
	tdir := filepath.Join(dir, "traces", "netsplit", "fast", "seed1")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(tdir, "exp000.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	d, err := Collect(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d.Sources.Journal || !d.Sources.Metrics || d.Sources.Traces != 1 {
		t.Errorf("sources = %+v", d.Sources)
	}
	if len(d.Members) != 1 || d.Members[0].Member != "beta" {
		t.Fatalf("members = %+v", d.Members)
	}
	m := d.Members[0]
	if m.SyncOK != 16 || m.ClockOffsetNS != -4200 || m.TraceSpans != 3 {
		t.Errorf("member stats = %+v", m)
	}
	// Coordinator and beta rows stay separate.
	if len(d.Transports) != 2 {
		t.Fatalf("transports = %+v", d.Transports)
	}
	byMember := map[string]TransportStat{}
	for _, ts := range d.Transports {
		byMember[ts.Member] = ts
	}
	if byMember[""].FramesSent != 40 || byMember["beta"].FramesSent != 25 {
		t.Errorf("transport rows = %+v", d.Transports)
	}
	if byMember[""].RTTCount != 1 || byMember[""].RTTMeanNS != 2_000_000 {
		t.Errorf("rtt stats = %+v", byMember[""])
	}
	// Both lanes' experiment spans aggregate into one phase row.
	if len(d.Phases) != 1 || d.Phases[0].Phase != "experiment" || d.Phases[0].Count != 2 {
		t.Fatalf("phases = %+v", d.Phases)
	}
	if d.Phases[0].MinNS != 30e6 || d.Phases[0].MaxNS != 31e6 {
		t.Errorf("phase bounds = %+v", d.Phases[0])
	}

	var html strings.Builder
	if err := d.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Member clock sync", "beta", "Transports", "Phase latencies"} {
		if !strings.Contains(html.String(), w) {
			t.Errorf("html missing %q", w)
		}
	}
}

// TestCollectErrNoArtifacts: an artifact-less directory is the sentinel
// error, distinguishable from real failures.
func TestCollectErrNoArtifacts(t *testing.T) {
	_, err := Collect(Options{Dir: t.TempDir()})
	if !errors.Is(err, ErrNoArtifacts) {
		t.Fatalf("err = %v, want ErrNoArtifacts", err)
	}
	if _, err := Collect(Options{}); errors.Is(err, ErrNoArtifacts) || err == nil {
		t.Fatalf("missing dir: err = %v, want a non-sentinel error", err)
	}
}

// TestBuildHeatmap: scenario/profile point names fold into a surface,
// extra segments (seeds) aggregate, and flat names produce no heatmap.
func TestBuildHeatmap(t *testing.T) {
	points := []PointReport{
		{Point: "netsplit/fast/seed1", Verdicts: campaign.Tally{Experiments: 2, Accepted: 2}},
		{Point: "netsplit/fast/seed2", Verdicts: campaign.Tally{Experiments: 2, Accepted: 1}},
		{Point: "netsplit/slow", Verdicts: campaign.Tally{Experiments: 2, Accepted: 0}},
		{Point: "crash/fast", Verdicts: campaign.Tally{Experiments: 1, Accepted: 1}},
	}
	h := buildHeatmap(points)
	if h == nil {
		t.Fatal("no heatmap")
	}
	if len(h.Cols) != 2 || h.Cols[0] != "fast" || h.Cols[1] != "slow" {
		t.Fatalf("cols = %v", h.Cols)
	}
	if len(h.Rows) != 2 || h.Rows[0].Name != "crash" || h.Rows[1].Name != "netsplit" {
		t.Fatalf("rows = %+v", h.Rows)
	}
	// netsplit/fast aggregates both seeds: 3/4 accepted.
	nf := h.Rows[1].Cells[0]
	if nf.Total != 4 || nf.Accepted != 3 {
		t.Errorf("netsplit/fast cell = %+v", nf)
	}
	// crash/slow never ran: empty cell keeps the grid rectangular.
	if c := h.Rows[0].Cells[1]; c.Total != 0 {
		t.Errorf("crash/slow cell = %+v", c)
	}
	if buildHeatmap([]PointReport{{Point: "flat"}}) != nil {
		t.Error("flat names produced a heatmap")
	}
}

// TestSplitSeries covers the metric-name grammar.
func TestSplitSeries(t *testing.T) {
	base, labels := splitSeries(`loki_x_total{transport="udp",member="beta"}`)
	if base != "loki_x_total" || labels["transport"] != "udp" || labels["member"] != "beta" {
		t.Errorf("splitSeries = %q %v", base, labels)
	}
	if base, labels := splitSeries("plain"); base != "plain" || labels != nil {
		t.Errorf("plain: %q %v", base, labels)
	}
}

// TestCollectCountsEachJournaledKeyOnce: a key journaled twice (a re-run's
// record supersedes the earlier copy) is one experiment in the report,
// with the verdict of the later copy.
func TestCollectCountsEachJournaledKeyOnce(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	header, rec := lines[0], lines[1]
	// The edited line is framed again, as the journal writes it.
	body := strings.TrimSuffix(strings.TrimPrefix(rec, `{"record":`), rec[len(rec)-len(`,"sum":"00000000"}`+"\n"):])
	rejected := string(frame("record", []byte(strings.Replace(body, `"Completed":true,"Accepted":true`, `"Completed":true,"Accepted":false`, 1))))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.jsonl"), []byte(header+rec+rejected), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Collect(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Tally{Experiments: 1, Rejected: 1}
	if d.Totals != want || len(d.Points) != 1 || d.Points[0].Verdicts != want {
		t.Errorf("totals %+v, points %+v; want %+v for the one point", d.Totals, d.Points, want)
	}
}
