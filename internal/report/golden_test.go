package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden reports")

// hostile is every byte sequence the HTML escaper has to get right in one
// name: the seven characters html/template replaces (NUL among them), an
// invalid UTF-8 byte, a noncharacter (U+FDD0) and a closing title tag.
// Through Collect the invalid byte reaches the page as U+FFFD, since
// every artifact is JSON; the fuzz test feeds raw invalid UTF-8.
const hostile = "<&'\"+\x00\xff﷐</title>"

// frame is one checkpoint journal line as the campaign journal writes it:
// body under its tag, then the body's CRC-32C in eight lowercase hex digits.
func frame(tag string, body []byte) []byte {
	return fmt.Appendf(nil, `{%q:%s,"sum":"%08x"}`+"\n", tag, body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// writeGoldenElection lays out a directory whose only artifact is the
// golden election journal: the one-point verdict table and nothing else.
func writeGoldenElection(t testing.TB, dir string) {
	t.Helper()
	b, err := os.ReadFile("../../testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(campaign.JournalPath(dir), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeGoldenMatrix lays out a directory that fills every section of the
// report: a matrix journal (verdicts of every kind, a heatmap with an
// empty cell, a point too flat for the heatmap), a metrics snapshot with
// a coordinator transport row, a member row without RTT samples and a
// member clock-sync row, and a merged trace whose spans fall in several
// buckets. Every name carries hostile.
func writeGoldenMatrix(t testing.TB, dir string) {
	t.Helper()
	var journal bytes.Buffer
	line := func(tag string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(frame(tag, b))
	}
	line("journal", map[string]any{
		"Version": 3, "Campaign": "matrix" + hostile, "Fingerprint": "fp+" + hostile,
	})
	type record struct {
		Point       string
		Index       int
		Fingerprint string
		Experiment  campaign.ExperimentRecord
	}
	// The analysis phase suspects a clock step only when the clock fit is
	// infeasible, so the stepping record carries the error it writes then.
	for _, r := range []struct {
		point                         string
		index                         int
		completed, accepted, stepping bool
	}{
		{"net<split>/fast&'/seed1", 0, true, true, false},
		{"net<split>/fast&'/seed1", 1, true, false, false},
		{"net<split>/fast&'/seed2", 0, true, true, false},
		{"net<split>/slow\"+/seed1", 0, false, false, false},
		{"net<split>/slow\"+/seed1", 1, true, false, true},
		{"crash\x00/fast&'/seed1", 0, true, true, false},
		{"\xff﷐/slow\"+", 0, true, false, false},
		{"flat<&'\"+\x00\xff﷐", 0, true, true, false},
	} {
		rec := record{
			Point: r.point, Index: r.index, Fingerprint: "f",
			Experiment: campaign.ExperimentRecord{
				Study: r.point, Index: r.index,
				Completed: r.completed, Accepted: r.accepted,
				ClockStepSuspected: r.stepping,
			},
		}
		if r.stepping {
			rec.Experiment.AnalysisError = "clock sync: host h2: infeasible (lo > hi)"
		}
		line("record", rec)
	}
	if err := os.WriteFile(campaign.JournalPath(dir), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reg.Counter(`loki_transport_frames_sent_total{transport="udp+<&>"}`, "").Add(40)
	reg.Counter(`loki_transport_frames_recv_total{transport="udp+<&>"}`, "").Add(38)
	reg.Counter(`loki_transport_bytes_sent_total{transport="udp+<&>"}`, "").Add(3 << 20)
	reg.Counter(`loki_transport_bytes_recv_total{transport="udp+<&>"}`, "").Add(2500)
	reg.Counter(`loki_transport_send_errors_total{transport="udp+<&>"}`, "").Add(2)
	reg.Counter(`loki_transport_retries_total{transport="udp+<&>"}`, "").Add(1)
	reg.Histogram(`loki_transport_rtt_seconds{transport="udp+<&>"}`, "", nil).Observe(0.0021)
	member := obs.NewRegistry()
	member.Counter(`loki_transport_frames_sent_total{transport="udp+<&>"}`, "").Add(25)
	member.Counter(`loki_transport_bytes_sent_total{transport="udp+<&>"}`, "").Add(700)
	memberName := "be<ta>&'+\x00﷐"
	reg.ImportSnapshot(memberName, member.LocalSnapshot())
	sink := &obs.Sink{Metrics: reg}
	mm := sink.MemberMetrics(memberName)
	mm.SyncRoundsOK.Add(16)
	mm.SyncRoundsLost.Add(3)
	mm.ClockOffsetNS.Set(-4200)
	mm.ClockRTTNS.Set(1_500_000_000)
	mm.TraceSpans.Add(3)
	mm.TraceEvents.Add(7)
	mf, err := os.Create(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	base := time.Unix(0, 0)
	tr := obs.NewTrace("net<split>/fast&'/seed1", 0)
	tr.Span("experiment"+hostile, base, base.Add(30*time.Millisecond))
	tr.Span("sync", base, base.Add(700*time.Nanosecond))
	tr.Span("sync", base, base.Add(42*time.Microsecond))
	tr.Span("sync", base, base.Add(12*time.Second))
	lane := obs.NewTrace("net<split>/fast&'/seed1", 0)
	lane.Span("experiment"+hostile, base, base.Add(31*time.Millisecond))
	tr.Merge(memberName, lane, 0)
	tdir := filepath.Join(dir, "traces", "net<split>", "fast&'", "seed1")
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
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenFixtures are the report's golden inputs, by testdata directory.
var goldenFixtures = []struct {
	name  string
	write func(testing.TB, string)
}{
	{"election", writeGoldenElection},
	{"matrix", writeGoldenMatrix},
}

// collectFixture lays out a fixture in a fresh directory and collects
// its report model.
func collectFixture(t testing.TB, write func(testing.TB, string)) *Data {
	t.Helper()
	dir := t.TempDir()
	write(t, dir)
	d, err := Collect(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReportGolden pins report.html and report.json byte for byte over
// both fixtures. The golden files were written by the html/template
// renderer this package used before its appending writer (the reference
// in html_ref_test.go); regenerate with `go test ./internal/report -run
// TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			fx.write(t, dir)
			if _, err := Generate(Options{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			for _, file := range []string{"report.html", "report.json"} {
				got, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", fx.name, file)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from %s (%d vs %d bytes) at byte %d", file, golden, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
