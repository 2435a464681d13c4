package report

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/campaign"
)

// fuzzReader decodes a report model from fuzz input. Strings are a length
// byte and that many raw bytes (any bytes: invalid UTF-8, NUL); integers
// are eight big-endian bytes, so every int64 and uint64 is reachable;
// counts are one byte modulo 16. Input that runs out reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) str() string {
	n := min(int(r.byte()), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *fuzzReader) i64() int64 { return int64(r.u64()) }
func (r *fuzzReader) int() int   { return int(r.i64()) }
func (r *fuzzReader) count() int { return int(r.byte() % 16) }

func (r *fuzzReader) verdicts() campaign.Tally {
	return campaign.Tally{Experiments: r.int(), Accepted: r.int(), Rejected: r.int(), Discarded: r.int(), Aborted: r.int(), ClockStep: r.int()}
}

// decodeFuzzData builds a Data from fuzz input. The heatmap's mode byte
// picks nil, empty or filled; rows carry their own cell count, so a row
// may be shorter or longer than the columns.
func decodeFuzzData(in []byte) *Data {
	r := &fuzzReader{in}
	d := &Data{Campaign: r.str(), Fingerprint: r.str()}
	flags := r.byte()
	d.Sources = Sources{Journal: flags&1 != 0, Metrics: flags&2 != 0, Traces: r.int()}
	d.Totals = r.verdicts()
	for n := r.count(); n > 0; n-- {
		d.Points = append(d.Points, PointReport{Point: r.str(), Verdicts: r.verdicts()})
	}
	switch r.byte() % 3 {
	case 1:
		d.Heatmap = &Heatmap{}
	case 2:
		h := &Heatmap{}
		for n := r.count(); n > 0; n-- {
			h.Cols = append(h.Cols, r.str())
		}
		for n := r.count(); n > 0; n-- {
			row := HeatRow{Name: r.str()}
			for c := r.count(); c > 0; c-- {
				row.Cells = append(row.Cells, HeatCell{Total: r.int(), Accepted: r.int()})
			}
			h.Rows = append(h.Rows, row)
		}
		d.Heatmap = h
	}
	for n := r.count(); n > 0; n-- {
		p := PhaseStat{Phase: r.str(), Count: r.int(), MinNS: r.i64(), MaxNS: r.i64(), MeanNS: r.i64()}
		for b := r.count(); b > 0; b-- {
			p.Buckets = append(p.Buckets, r.i64())
		}
		d.Phases = append(d.Phases, p)
	}
	for n := r.count(); n > 0; n-- {
		d.Members = append(d.Members, MemberStat{
			Member: r.str(), ClockOffsetNS: r.i64(), ClockRTTNS: r.i64(),
			SyncOK: r.u64(), SyncLost: r.u64(), TraceSpans: r.u64(), TraceEvents: r.u64(),
		})
	}
	for n := r.count(); n > 0; n-- {
		d.Transports = append(d.Transports, TransportStat{
			Transport: r.str(), Member: r.str(),
			FramesSent: r.u64(), FramesRecv: r.u64(), BytesSent: r.u64(), BytesRecv: r.u64(),
			SendErrors: r.u64(), Retries: r.u64(), RTTCount: r.u64(), RTTMeanNS: r.i64(),
		})
	}
	return d
}

// fuzzWriter is decodeFuzzData's inverse, for seeding the corpus with
// real report models.
type fuzzWriter struct {
	t testing.TB
	b []byte
}

func (w *fuzzWriter) str(s string) {
	if len(s) > 255 {
		w.t.Fatalf("seed string %q is longer than 255 bytes", s)
	}
	w.b = append(append(w.b, byte(len(s))), s...)
}

func (w *fuzzWriter) u64(v uint64) {
	for i := 56; i >= 0; i -= 8 {
		w.b = append(w.b, byte(v>>i))
	}
}

func (w *fuzzWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *fuzzWriter) int(v int)   { w.i64(int64(v)) }

func (w *fuzzWriter) count(n int) {
	if n > 15 {
		w.t.Fatalf("seed list of %d is longer than 15", n)
	}
	w.b = append(w.b, byte(n))
}

func (w *fuzzWriter) verdicts(v campaign.Tally) {
	for _, n := range []int{v.Experiments, v.Accepted, v.Rejected, v.Discarded, v.Aborted, v.ClockStep} {
		w.int(n)
	}
}

func encodeFuzzData(t testing.TB, d *Data) []byte {
	w := &fuzzWriter{t: t}
	w.str(d.Campaign)
	w.str(d.Fingerprint)
	var flags byte
	if d.Sources.Journal {
		flags |= 1
	}
	if d.Sources.Metrics {
		flags |= 2
	}
	w.b = append(w.b, flags)
	w.int(d.Sources.Traces)
	w.verdicts(d.Totals)
	w.count(len(d.Points))
	for _, p := range d.Points {
		w.str(p.Point)
		w.verdicts(p.Verdicts)
	}
	if h := d.Heatmap; h == nil {
		w.b = append(w.b, 0)
	} else {
		w.b = append(w.b, 2)
		w.count(len(h.Cols))
		for _, c := range h.Cols {
			w.str(c)
		}
		w.count(len(h.Rows))
		for _, row := range h.Rows {
			w.str(row.Name)
			w.count(len(row.Cells))
			for _, c := range row.Cells {
				w.int(c.Total)
				w.int(c.Accepted)
			}
		}
	}
	w.count(len(d.Phases))
	for _, p := range d.Phases {
		w.str(p.Phase)
		w.int(p.Count)
		w.i64(p.MinNS)
		w.i64(p.MaxNS)
		w.i64(p.MeanNS)
		w.count(len(p.Buckets))
		for _, b := range p.Buckets {
			w.i64(b)
		}
	}
	w.count(len(d.Members))
	for _, m := range d.Members {
		w.str(m.Member)
		w.i64(m.ClockOffsetNS)
		w.i64(m.ClockRTTNS)
		for _, v := range []uint64{m.SyncOK, m.SyncLost, m.TraceSpans, m.TraceEvents} {
			w.u64(v)
		}
	}
	w.count(len(d.Transports))
	for _, tr := range d.Transports {
		w.str(tr.Transport)
		w.str(tr.Member)
		for _, v := range []uint64{tr.FramesSent, tr.FramesRecv, tr.BytesSent, tr.BytesRecv, tr.SendErrors, tr.Retries, tr.RTTCount} {
			w.u64(v)
		}
		w.i64(tr.RTTMeanNS)
	}
	return w.b
}

// edgeData is a model of boundary values: the least int and int64 and negative
// counts everywhere a number is written, zero totals, an all-zero and a
// negative histogram (its widths are exponents with a '+'), empty heatmap
// cells and a ragged row, names of the bytes the escaper replaces.
func edgeData() *Data {
	return &Data{
		Campaign:    "\x00+",
		Fingerprint: "'\"",
		Sources:     Sources{Journal: true, Traces: -1},
		Totals:      campaign.Tally{Experiments: math.MinInt, Accepted: -3},
		Points: []PointReport{
			{Point: "a/b", Verdicts: campaign.Tally{}},
			{Point: "\xff\xfe", Verdicts: campaign.Tally{Experiments: -5, Accepted: 0}},
		},
		Heatmap: &Heatmap{
			Cols: []string{"<b>", ""},
			Rows: []HeatRow{
				{Name: "&", Cells: []HeatCell{{}, {Total: -2, Accepted: math.MaxInt}}},
				{Name: "", Cells: nil},
			},
		},
		Phases: []PhaseStat{
			{Phase: "zero", Buckets: make([]int64, len(PhaseBounds)+1)},
			{Phase: "neg", Count: -1, MinNS: math.MinInt64, MaxNS: math.MaxInt64, MeanNS: -999,
				Buckets: []int64{math.MinInt64, 1, -1, math.MaxInt64}},
			{Phase: "small", Buckets: []int64{math.MinInt64, 1}},
		},
		Members: []MemberStat{{Member: "", ClockOffsetNS: math.MinInt64, ClockRTTNS: -1e9, SyncOK: math.MaxUint64}},
		Transports: []TransportStat{
			{Transport: "", BytesSent: math.MaxUint64, BytesRecv: 1<<20 - 1, RTTCount: 1, RTTMeanNS: math.MinInt64},
			{Transport: "+", Member: "\x00", RTTCount: 0, RTTMeanNS: 5},
		},
	}
}

// FuzzWriteHTMLMatchesTemplate holds appendHTML to the html/template
// reference byte for byte over arbitrary models: any bytes in every
// string, any int64 and uint64, nil, empty and ragged heatmaps,
// histograms of any shape. The corpus is seeded with both golden
// fixtures' models, edgeData and the empty model; a plain go test runs
// these seeds.
//
// Mutation checks, each run in a scratch copy of this package: dropping
// appendEscaped's '+' case, and dropping its NUL case, each fail this
// test on the matrix fixture's and edgeData's seeds before any fuzzing;
// with only the election seed and an empty fuzz cache, the fuzzer finds
// each within its first second.
func FuzzWriteHTMLMatchesTemplate(f *testing.F) {
	for _, fx := range goldenFixtures {
		f.Add(encodeFuzzData(f, collectFixture(f, fx.write)))
	}
	f.Add(encodeFuzzData(f, edgeData()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := decodeFuzzData(in)
		want, err := refHTML(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.appendHTML(nil); !bytes.Equal(got, want) {
			i := firstDiff(got, want)
			t.Fatalf("appendHTML differs from the template at byte %d:\n got %q\nwant %q", i, tail(got, i), tail(want, i))
		}
	})
}

// tail is up to 80 bytes of b from a little before i.
func tail(b []byte, i int) []byte {
	lo := max(0, i-20)
	return b[lo:min(len(b), lo+80)]
}

// TestFmtNSBoundaries pins each scale's boundary, and math.MinInt64,
// whose magnitude does not fit an int64: it renders with one sign.
func TestFmtNSBoundaries(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{-999, "-999ns"},
		{1e3, "1.0µs"},
		{-1e3, "-1.0µs"},
		{1e6 - 1, "1000.0µs"},
		{1e6, "1.00ms"},
		{1e9, "1.00s"},
		{-1e9, "-1.00s"},
		{math.MaxInt64, "9223372036.85s"},
		{math.MinInt64, "-9223372036.85s"},
	} {
		if got := fmtNS(c.ns); got != c.want {
			t.Errorf("fmtNS(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// benchData is a resume-report-shaped model: points named
// scenario/profile/seedN over four scenarios and four profiles, so the
// heatmap is 4×4 whatever the point count.
func benchData(points int) *Data {
	d := &Data{Campaign: "journaled-chaos", Fingerprint: "879ef3a52a7b9ffa", Sources: Sources{Journal: true}}
	for i := range points {
		p := PointReport{
			Point:    fmt.Sprintf("scenario%d/profile%d/seed%d", i%4, i/4%4, i/16),
			Verdicts: campaign.Tally{Experiments: 4, Accepted: 3, Rejected: 1},
		}
		d.Points = append(d.Points, p)
		d.Totals.Experiments += 4
		d.Totals.Accepted += 3
		d.Totals.Rejected++
	}
	d.Heatmap = buildHeatmap(d.Points)
	return d
}

// TestReportRenderAllocBudget: rendering a report allocates a constant,
// not per matrix point. The reference template allocates 855 times for
// benchData(8) and 31,612 for benchData(512); the writer allocates its
// sized buffer once.
func TestReportRenderAllocBudget(t *testing.T) {
	budget := 2.0
	if raceBuild {
		budget = 4
	}
	for _, points := range []int{8, 512} {
		d := benchData(points)
		allocs := testing.AllocsPerRun(20, func() {
			if err := d.WriteHTML(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d points: %.1f allocations per render", points, allocs)
		if allocs > budget {
			t.Errorf("%d points: %.1f allocations per render, budget %.0f", points, allocs, budget)
		}
	}
}
