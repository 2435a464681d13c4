// Package report turns a campaign's artifacts — checkpoint journal,
// metrics snapshot, and per-experiment traces — into a self-contained
// report.html plus a machine-readable report.json, re-running nothing:
// `lokirun -report` reads all three from a finished (or crashed)
// campaign's directory. A session with artifacts enabled emits one after
// each run, handing in the journal's summary (Options.Journal) built from
// the records the run holds; it reads only metrics.json and the traces.
//
// The verdict sections are campaign.Tally counts of each record's
// ExperimentRecord.Verdict — accepted, rejected, discarded (the analysis
// phase could not process the run) or aborted — from the one journal
// summary that status queries read too (campaign.SummarizeJournal, or
// campaign.SummarizeRecords over records in hand).
//
// Output is deterministic: everything is sorted, nothing is timestamped,
// so regenerating a report over unchanged artifacts is byte-identical.
//
// report.html comes from one appending writer (html.go). The
// html/template renderer it replaced is kept only as a test reference
// (html_ref_test.go): golden files and a differential fuzz test hold the
// writer to its bytes. The template stays out of the build because
// text/template's reflection stops the linker from pruning unused
// methods in every binary that links it.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// ErrNoArtifacts is returned by Collect when none of the three sources
// exist — callers auto-emitting a report treat it as "nothing to do".
var ErrNoArtifacts = errors.New("report: no artifacts")

// Options locate a campaign's artifacts and say what is already in hand.
type Options struct {
	// Dir is the artifact directory: metrics.json and traces/ are read
	// from it, report.html and report.json are written into it.
	Dir string
	// Journal, when non-nil, is the checkpoint journal's summary, handed
	// in by a session from the records its run holds. When nil, it is
	// read from Dir/checkpoint.jsonl, if there is one.
	Journal *campaign.JournalSummary
}

// Sources records which inputs existed, so a report over partial
// artifacts says what it was built from.
type Sources struct {
	Journal bool `json:"journal"`
	Metrics bool `json:"metrics"`
	Traces  int  `json:"traces"` // trace artifacts read
}

// PointReport is one study's (or matrix point's) verdict breakdown.
type PointReport struct {
	Point    string         `json:"point"`
	Verdicts campaign.Tally `json:"verdicts"`
}

// HeatCell is one acceptance-heatmap cell.
type HeatCell struct {
	Total    int `json:"total"`
	Accepted int `json:"accepted"`
}

// HeatRow is one scenario row of the heatmap, cells aligned with
// Heatmap.Cols.
type HeatRow struct {
	Name  string     `json:"name"`
	Cells []HeatCell `json:"cells"`
}

// Heatmap is the matrix acceptance surface, derived from point names of
// the form scenario/profile/... — rows are scenarios, columns latency
// profiles, seeds aggregate into the cells. Nil when no point name has
// that shape.
type Heatmap struct {
	Cols []string  `json:"cols"`
	Rows []HeatRow `json:"rows"`
}

// PhaseStat aggregates one span name's durations across every trace
// artifact (all lanes).
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   int     `json:"count"`
	MinNS   int64   `json:"min_ns"`
	MaxNS   int64   `json:"max_ns"`
	MeanNS  int64   `json:"mean_ns"`
	Buckets []int64 `json:"buckets"` // counts per PhaseBounds bucket, +Inf last
}

// PhaseBounds are the phase-latency histogram upper bounds in
// nanoseconds (1µs..10s decades); the final implicit bucket is +Inf.
var PhaseBounds = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// PhaseBoundLabels name the buckets for rendering.
func PhaseBoundLabels() []string {
	out := make([]string, 0, len(PhaseBounds)+1)
	for _, b := range PhaseBounds {
		out = append(out, "≤"+fmtNS(b))
	}
	return append(out, ">"+fmtNS(PhaseBounds[len(PhaseBounds)-1]))
}

// MemberStat is one cluster member's clock-sync quality and merged-lane
// volume, read from the member-labeled fleet metrics.
type MemberStat struct {
	Member        string `json:"member"`
	ClockOffsetNS int64  `json:"clock_offset_ns"`
	ClockRTTNS    int64  `json:"clock_rtt_ns"`
	SyncOK        uint64 `json:"sync_rounds_ok"`
	SyncLost      uint64 `json:"sync_rounds_lost"`
	TraceSpans    uint64 `json:"trace_spans"`
	TraceEvents   uint64 `json:"trace_events"`
}

// TransportStat is one (transport, member) frame/retry/RTT row. Member
// is empty for the coordinating process's own series.
type TransportStat struct {
	Transport  string  `json:"transport"`
	Member     string  `json:"member,omitempty"`
	FramesSent uint64  `json:"frames_sent"`
	FramesRecv uint64  `json:"frames_recv"`
	BytesSent  uint64  `json:"bytes_sent"`
	BytesRecv  uint64  `json:"bytes_recv"`
	SendErrors uint64  `json:"send_errors"`
	Retries    uint64  `json:"retries"`
	RTTCount   uint64  `json:"rtt_count"`
	RTTMeanNS  int64   `json:"rtt_mean_ns"`
	rttSum     float64 // seconds, pre-mean
}

// Data is the collected report model — what report.json serializes and
// report.html renders.
type Data struct {
	Campaign    string          `json:"campaign"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Sources     Sources         `json:"sources"`
	Totals      campaign.Tally  `json:"totals"`
	Points      []PointReport   `json:"points"`
	Heatmap     *Heatmap        `json:"heatmap,omitempty"`
	Phases      []PhaseStat     `json:"phases,omitempty"`
	Members     []MemberStat    `json:"members,omitempty"`
	Transports  []TransportStat `json:"transports,omitempty"`
}

// Collect reads whatever artifacts exist under opt and builds the report
// model; the journal's summary is opt.Journal when handed in. At least
// one source (journal, metrics.json, traces/) must exist; missing
// individual sources only clear their sections.
func Collect(opt Options) (*Data, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("report: no artifact directory")
	}
	j := opt.Journal
	if j == nil { // the disk reader; with no journal, j stays nil
		var err error
		if j, err = campaign.SummarizeJournal(opt.Dir); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	d := &Data{}
	if j != nil { // the verdict sections
		d.Sources.Journal = true
		d.Campaign, d.Fingerprint, d.Totals = j.Campaign, j.Fingerprint, j.Totals()
		for _, p := range j.Points {
			d.Points = append(d.Points, PointReport{Point: p.Point, Verdicts: p.Tally})
		}
		d.Heatmap = buildHeatmap(d.Points)
	}
	if err := d.collectMetrics(filepath.Join(opt.Dir, "metrics.json")); err != nil {
		return nil, err
	}
	if err := d.collectTraces(filepath.Join(opt.Dir, "traces")); err != nil {
		return nil, err
	}
	if !d.Sources.Journal && !d.Sources.Metrics && d.Sources.Traces == 0 {
		return nil, fmt.Errorf("%w under %s (no checkpoint journal, metrics.json, or traces)", ErrNoArtifacts, opt.Dir)
	}
	return d, nil
}

// buildHeatmap folds matrix point names scenario/profile[/seed...] into
// an acceptance surface; nil when no name has at least two segments.
func buildHeatmap(points []PointReport) *Heatmap {
	type key struct{ row, col string }
	cells := map[key]*HeatCell{}
	rowSet, colSet := map[string]bool{}, map[string]bool{}
	for _, p := range points {
		row, rest, ok := strings.Cut(p.Point, "/")
		if !ok {
			continue
		}
		col, _, _ := strings.Cut(rest, "/")
		k := key{row, col}
		rowSet[k.row] = true
		colSet[k.col] = true
		c := cells[k]
		if c == nil {
			c = &HeatCell{}
			cells[k] = c
		}
		c.Total += p.Verdicts.Experiments
		c.Accepted += p.Verdicts.Accepted
	}
	if len(cells) == 0 {
		return nil
	}
	h := &Heatmap{Cols: sortedKeys(colSet)}
	for _, row := range sortedKeys(rowSet) {
		r := HeatRow{Name: row}
		for _, col := range h.Cols {
			if c := cells[key{row, col}]; c != nil {
				r.Cells = append(r.Cells, *c)
			} else {
				r.Cells = append(r.Cells, HeatCell{})
			}
		}
		h.Rows = append(h.Rows, r)
	}
	return h
}

// sortedKeys lists m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// collectMetrics parses the metrics.json snapshot into member and
// transport tables.
func (d *Data) collectMetrics(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("report: %w", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("report: parsing %s: %w", path, err)
	}
	d.Sources.Metrics = true

	members := map[string]*MemberStat{}
	member := func(name string) *MemberStat {
		m := members[name]
		if m == nil {
			m = &MemberStat{Member: name}
			members[name] = m
		}
		return m
	}
	transports := map[string]*TransportStat{}
	transportOf := func(labels map[string]string) *TransportStat {
		k := labels["transport"] + "\x00" + labels["member"]
		t := transports[k]
		if t == nil {
			t = &TransportStat{Transport: labels["transport"], Member: labels["member"]}
			transports[k] = t
		}
		return t
	}

	for name, v := range snap.Counters {
		base, labels := splitSeries(name)
		switch base {
		case "loki_member_sync_rounds_ok_total":
			member(labels["member"]).SyncOK = v
		case "loki_member_sync_rounds_lost_total":
			member(labels["member"]).SyncLost = v
		case "loki_member_trace_spans_total":
			member(labels["member"]).TraceSpans = v
		case "loki_member_trace_events_total":
			member(labels["member"]).TraceEvents = v
		case "loki_transport_frames_sent_total":
			transportOf(labels).FramesSent = v
		case "loki_transport_frames_recv_total":
			transportOf(labels).FramesRecv = v
		case "loki_transport_bytes_sent_total":
			transportOf(labels).BytesSent = v
		case "loki_transport_bytes_recv_total":
			transportOf(labels).BytesRecv = v
		case "loki_transport_send_errors_total":
			transportOf(labels).SendErrors = v
		case "loki_transport_retries_total":
			transportOf(labels).Retries = v
		}
	}
	for name, v := range snap.Gauges {
		base, labels := splitSeries(name)
		switch base {
		case "loki_member_clock_offset_ns":
			member(labels["member"]).ClockOffsetNS = v
		case "loki_member_clock_rtt_ns":
			member(labels["member"]).ClockRTTNS = v
		}
	}
	for name, h := range snap.Histograms {
		base, labels := splitSeries(name)
		if base == "loki_transport_rtt_seconds" {
			t := transportOf(labels)
			t.RTTCount = h.Count
			t.rttSum = h.Sum
		}
	}

	for _, name := range sortedKeys(members) {
		m := members[name]
		if m.Member == "" {
			continue // malformed label; nothing to attribute
		}
		d.Members = append(d.Members, *m)
	}
	for _, k := range sortedKeys(transports) {
		t := transports[k]
		if t.RTTCount > 0 {
			t.RTTMeanNS = int64(t.rttSum / float64(t.RTTCount) * 1e9)
		}
		d.Transports = append(d.Transports, *t)
	}
	return nil
}

// splitSeries parses `base{k="v",k2="v2"}` into its base name and label
// map. The registry's own naming discipline (no quotes or commas inside
// values) keeps the grammar simple.
func splitSeries(name string) (string, map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	labels := map[string]string{}
	for _, pair := range strings.Split(name[i+1:len(name)-1], ",") {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			continue
		}
		k := strings.TrimSpace(pair[:eq])
		v := strings.Trim(strings.TrimSpace(pair[eq+1:]), `"`)
		labels[k] = v
	}
	return name[:i], labels
}

// collectTraces aggregates span durations by name across every trace
// artifact under dir (traces/<point>/expNNN.trace.jsonl; matrix point
// names contain slashes, so artifacts nest arbitrarily deep).
func (d *Data) collectTraces(dir string) error {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !de.IsDir() && strings.HasSuffix(path, ".trace.jsonl") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	stats := map[string]*PhaseStat{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		t, err := obs.DecodeTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("report: %s: %w", path, err)
		}
		d.Sources.Traces++
		for _, s := range t.Spans() {
			ps := stats[s.Name]
			if ps == nil {
				ps = &PhaseStat{Phase: s.Name, MinNS: 1<<63 - 1, Buckets: make([]int64, len(PhaseBounds)+1)}
				stats[s.Name] = ps
			}
			dur := s.End - s.Start
			ps.Count++
			ps.MeanNS += dur // sum for now; divided below
			if dur < ps.MinNS {
				ps.MinNS = dur
			}
			if dur > ps.MaxNS {
				ps.MaxNS = dur
			}
			b := len(PhaseBounds)
			for i, bound := range PhaseBounds {
				if dur <= bound {
					b = i
					break
				}
			}
			ps.Buckets[b]++
		}
	}
	for _, name := range sortedKeys(stats) {
		ps := stats[name]
		if ps.Count > 0 {
			ps.MeanNS /= int64(ps.Count)
		}
		d.Phases = append(d.Phases, *ps)
	}
	return nil
}

// WriteJSON writes the model as indented JSON (report.json).
func (d *Data) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Generate collects the artifacts under opt and writes report.json and
// report.html into opt.Dir, returning the HTML path.
func Generate(opt Options) (string, error) {
	d, err := Collect(opt)
	if err != nil {
		return "", err
	}
	if err := obs.WriteArtifact(filepath.Join(opt.Dir, "report.json"), 0o666, d.WriteJSON); err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	htmlPath := filepath.Join(opt.Dir, "report.html")
	if err := obs.WriteArtifact(htmlPath, 0o666, d.WriteHTML); err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	return htmlPath, nil
}
