package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/timeline"
)

// pinnedRecords builds the records whose journal lines TestRecordWireBytesPinned
// pins: an accepted one (bounds, global timeline, report, and — for the raw
// variant — a local timeline and stamps) and a discarded one (analysis
// error, clock-step verdict). Strings carry <, > and & on purpose: the
// journal's JSON is HTML-escaped and must stay so.
func pinnedRecords() (accepted, acceptedRaw, discarded *ExperimentRecord) {
	local := &timeline.Local{
		Meta: timeline.Meta{
			Owner:        "beta",
			Machines:     []string{"alpha", "beta"},
			GlobalStates: []string{"S1", "S2"},
			Events:       []string{"GO"},
			Faults:       []faultexpr.Spec{{Name: "bfault", Expr: faultexpr.MustParse("(beta:S2)"), Mode: faultexpr.Once}},
			Hosts:        []string{"h2"},
		},
		Entries: []timeline.Entry{
			{Kind: timeline.HostChange, Host: "h2", Time: 5},
			{Kind: timeline.StateChange, Event: "GO", NewState: "S2", Host: "h2", Time: 1 << 33},
			{Kind: timeline.FaultInjection, Fault: "bfault", Host: "h2", Time: 1<<33 + 7},
			{Kind: timeline.Note, Text: "a<b & \"c\"", Host: "h2", Time: 1<<33 + 9},
		},
	}
	global := &analysis.Global{
		Reference: "h1",
		Machines:  []string{"beta"},
		Events: []analysis.Event{
			{Machine: "beta", Kind: timeline.StateChange, State: "S2", Event: "GO", Host: "h2", Local: 1 << 33, Ref: analysis.Interval{Lo: 100, Hi: 140}},
			{Machine: "beta", Kind: timeline.FaultInjection, Fault: "bfault", Host: "h2", Local: 1<<33 + 7, Ref: analysis.Interval{Lo: 107, Hi: 147}},
		},
	}
	accepted = &ExperimentRecord{
		Study: "pin", Index: 3, Completed: true, Accepted: true,
		Outcomes: map[string]string{"beta": "exited", "alpha": "crashed"},
		Bounds: map[string]clocksync.Bounds{
			"h1": {BetaLo: 1, BetaHi: 1},
			"h2": {AlphaLo: -4000000.5, AlphaHi: -3999000.25, BetaLo: 0.99994, BetaHi: 1.00006},
		},
		Global: global,
		Report: &analysis.Report{
			Injections: []analysis.InjectionCheck{{Machine: "beta", Fault: "bfault", At: analysis.Interval{Lo: 107, Hi: 147}, Correct: true, Reason: "state S2 held over <[107,147]>"}},
			Accepted:   true,
		},
	}
	raw := *accepted
	raw.Locals = []*timeline.Local{local}
	raw.Stamps = []clocksync.StampedMessage{
		{SendHost: "h1", RecvHost: "h2", SendTime: 10, RecvTime: 4000020},
		{SendHost: "h2", RecvHost: "h1", SendTime: 4000030, RecvTime: 45},
	}
	discarded = &ExperimentRecord{
		Study: "pin", Index: 4, Completed: true,
		Outcomes:           map[string]string{"beta": "exited"},
		AnalysisError:      "clock sync: host h2: infeasible (lo > hi)",
		ClockStepSuspected: true,
		ClockStepHosts:     []string{"h2"},
		ClockStepBounds:    map[string]StepBound{"h2": {Lo: -12, Hi: 34}},
	}
	return accepted, &raw, discarded
}

// The record lines the last build with a separate wire struct and codec
// (PR 14, commit f0200de) wrote for pinnedRecords, verbatim.
const (
	pinAccepted    = `{"record":{"Point":"pin/point","Index":3,"Fingerprint":"00f1","Experiment":{"Study":"pin","Index":3,"Completed":true,"Accepted":true,"Outcomes":{"alpha":"crashed","beta":"exited"},"Bounds":{"h1":{"AlphaLo":0,"AlphaHi":0,"BetaLo":1,"BetaHi":1},"h2":{"AlphaLo":-4000000.5,"AlphaHi":-3999000.25,"BetaLo":0.99994,"BetaHi":1.00006}},"Global":"global_timeline h1\nS beta S2 GO h2 8589934592 100 140\nF beta bfault h2 8589934599 107 147\nend_global_timeline\n","Report":{"Injections":[{"Machine":"beta","Fault":"bfault","At":{"Lo":107,"Hi":147},"Correct":true,"Reason":"state S2 held over \u003c[107,147]\u003e"}],"MissingFaults":null,"Accepted":true}}}}`
	pinAcceptedRaw = `{"record":{"Point":"pin/point","Index":3,"Fingerprint":"00f1","Experiment":{"Study":"pin","Index":3,"Completed":true,"Accepted":true,"Outcomes":{"alpha":"crashed","beta":"exited"},"Bounds":{"h1":{"AlphaLo":0,"AlphaHi":0,"BetaLo":1,"BetaHi":1},"h2":{"AlphaLo":-4000000.5,"AlphaHi":-3999000.25,"BetaLo":0.99994,"BetaHi":1.00006}},"Global":"global_timeline h1\nS beta S2 GO h2 8589934592 100 140\nF beta bfault h2 8589934599 107 147\nend_global_timeline\n","Report":{"Injections":[{"Machine":"beta","Fault":"bfault","At":{"Lo":107,"Hi":147},"Correct":true,"Reason":"state S2 held over \u003c[107,147]\u003e"}],"MissingFaults":null,"Accepted":true},"Locals":["beta\nstate_machine_list\n0 alpha\n1 beta\nend_state_machine_list\nglobal_state_list\n0 S1\n1 S2\nend_global_state_list\nevent_list\n0 GO\nend_event_list\nfault_list\n0 bfault (beta:S2) once\nend_fault_list\nhost_list\n0 h2\nend_host_list\nlocal_timeline\n2 0 0 5\n0 0 1 2 0\n1 0 2 7\n3 \"a\u003cb \u0026 \\\"c\\\"\" 2 9\nend_local_timeline\n"],"Stamps":[{"SendHost":"h1","RecvHost":"h2","SendTime":10,"RecvTime":4000020},{"SendHost":"h2","RecvHost":"h1","SendTime":4000030,"RecvTime":45}]}}}`
	pinDiscarded   = `{"record":{"Point":"pin/point","Index":4,"Fingerprint":"00f1","Experiment":{"Study":"pin","Index":4,"Completed":true,"Accepted":false,"Outcomes":{"beta":"exited"},"AnalysisError":"clock sync: host h2: infeasible (lo \u003e hi)","ClockStepSuspected":true,"ClockStepHosts":["h2"],"ClockStepBounds":{"h2":{"Lo":-12,"Hi":34}}}}}`
)

// TestRecordWireBytesPinned: an ExperimentRecord marshals, field for field
// and byte for byte, to what the deleted wire struct wrote — with and
// without raw artifacts — and decodes back to a record that marshals the
// same, both whole (the resume path) and as its verdict view (the
// read-only readers).
func TestRecordWireBytesPinned(t *testing.T) {
	accepted, acceptedRaw, discarded := pinnedRecords()
	for _, tc := range []struct {
		name string
		rec  *ExperimentRecord
		want string
	}{
		{"accepted", accepted, pinAccepted},
		{"accepted with raw artifacts", acceptedRaw, pinAcceptedRaw},
		{"discarded", discarded, pinDiscarded},
	} {
		line := journalLine[*ExperimentRecord]{Record: &journalRecord[*ExperimentRecord]{
			Point: "pin/point", Index: tc.rec.Index, Fingerprint: "00f1", Experiment: tc.rec,
		}}
		got, err := json.Marshal(line)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: journal line changed\n got: %s\nwant: %s", tc.name, got, tc.want)
		}

		var lazy journalLine[json.RawMessage]
		if err := json.Unmarshal([]byte(tc.want), &lazy); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back := new(ExperimentRecord)
		if err := json.Unmarshal(lazy.Record.Experiment, back); err != nil {
			t.Fatalf("%s: decoding the journaled record: %v", tc.name, err)
		}
		if !bytes.Equal(wireBytes(t, back), wireBytes(t, tc.rec)) {
			t.Errorf("%s: record changed across the journal:\n got: %s\nwant: %s", tc.name, wireBytes(t, back), wireBytes(t, tc.rec))
		}
		if len(back.Locals) != len(tc.rec.Locals) || len(back.Stamps) != len(tc.rec.Stamps) {
			t.Errorf("%s: raw artifacts: %d locals %d stamps, want %d and %d",
				tc.name, len(back.Locals), len(back.Stamps), len(tc.rec.Locals), len(tc.rec.Stamps))
		}

		var verdict journalLine[RecordSummary]
		if err := json.Unmarshal([]byte(tc.want), &verdict); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := RecordSummary{Index: tc.rec.Index, Completed: tc.rec.Completed, Accepted: tc.rec.Accepted,
			AnalysisError: tc.rec.AnalysisError, ClockStepSuspected: tc.rec.ClockStepSuspected}
		if verdict.Record.Experiment != want {
			t.Errorf("%s: verdict view = %+v, want %+v", tc.name, verdict.Record.Experiment, want)
		}
	}
}

// journalKeys reads a journal's complete records three ways — the resume
// loader, SummarizeJournal, WalkJournal — and returns what each saw, plus
// the file's size after the loader truncated it.
func journalKeys(t testing.TB, dir, fingerprint string) (loaded, walked []journalKey, sum *JournalSummary, size int64) {
	t.Helper()
	sum, err := SummarizeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := WalkJournal(dir, func(r RecordSummary) {
		walked = append(walked, journalKey{r.Point, r.Index})
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(JournalPath(dir), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	j := &journal{f: f, entries: make(map[journalKey]journalRecord[json.RawMessage])}
	if err := j.load(fingerprint); err != nil {
		t.Fatal(err)
	}
	for k := range j.entries {
		loaded = append(loaded, k)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(s []journalKey) {
		sort.Slice(s, func(a, b int) bool {
			return s[a].Point < s[b].Point || s[a].Point == s[b].Point && s[a].Index < s[b].Index
		})
	}
	byKey(loaded)
	byKey(walked)
	return loaded, walked, sum, fi.Size()
}

// journalShape is a journal's line structure, read without readJournal:
// the offset just past each whole line and the key each record line
// carries (the header's is the zero key).
type journalShape struct {
	ends []int
	keys []journalKey
}

func shapeOf(t testing.TB, whole []byte) journalShape {
	t.Helper()
	var sh journalShape
	start := 0
	for i, b := range whole {
		if b != '\n' {
			continue
		}
		var line journalLine[json.RawMessage]
		if err := json.Unmarshal(whole[start:i], &line); err != nil {
			t.Fatalf("line at %d: %v", start, err)
		}
		var k journalKey
		if line.Record != nil {
			k = journalKey{line.Record.Point, line.Record.Index}
		}
		sh.ends = append(sh.ends, i+1)
		sh.keys = append(sh.keys, k)
		start = i + 1
	}
	if start != len(whole) {
		t.Fatalf("journal ends mid-line at %d of %d bytes", start, len(whole))
	}
	return sh
}

// checkEveryOffset cuts a journal at every byte offset — every crash point
// of a commit round — and checks that the three readers agree on which
// records are complete, that they are exactly the records whose line is
// whole in the prefix, that a cut inside a line is reported as appending,
// and that the loader truncates to the end of the last whole line and
// nowhere else.
func checkEveryOffset(t *testing.T, whole []byte, fp string) {
	sh := shapeOf(t, whole)
	dir := t.TempDir()
	for n := 0; n <= len(whole); n++ {
		if err := os.WriteFile(JournalPath(dir), whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		lines := sort.SearchInts(sh.ends, n+1) // whole lines in the prefix
		trusted := 0
		var want []journalKey
		if lines > 0 {
			trusted = sh.ends[lines-1]
			want = append(want, sh.keys[1:lines]...)
		}
		sort.Slice(want, func(a, b int) bool {
			return want[a].Point < want[b].Point || want[a].Point == want[b].Point && want[a].Index < want[b].Index
		})

		loaded, walked, sum, size := journalKeys(t, dir, fp)
		if !reflect.DeepEqual(loaded, want) || !reflect.DeepEqual(walked, want) || sum.Complete() != len(want) {
			t.Fatalf("cut at %d: loader %v, walk %v, summary %d complete; want %v", n, loaded, walked, sum.Complete(), want)
		}
		if sum.Appending != (n > trusted) || sum.Torn {
			t.Fatalf("cut at %d: appending %v, torn %v; want %v, false", n, sum.Appending, sum.Torn, n > trusted)
		}
		if size != int64(trusted) {
			t.Fatalf("cut at %d: loader left %d bytes, want %d (the last whole line)", n, size, trusted)
		}
	}
}

// TestJournalTruncatedAtEveryOffset runs checkEveryOffset over a workers-1
// study journal — whose records are in index order — and over a workers-2
// matrix journal, where two points append concurrently and their records
// interleave. Run under -race in CI.
func TestJournalTruncatedAtEveryOffset(t *testing.T) {
	t.Run("workers 1", func(t *testing.T) {
		c := stepCampaign(t, 3, 1)
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(JournalPath(c.Checkpoint.Dir))
		if err != nil {
			t.Fatal(err)
		}
		assertInIndexOrder(t, shapeOf(t, whole), 3)
		checkEveryOffset(t, whole, ConfigFingerprint(c))
	})
	t.Run("workers 2 matrix", func(t *testing.T) {
		c, m := cutMatrix(t, 2)
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := RunMatrix(context.Background(), c, m); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(JournalPath(c.Checkpoint.Dir))
		if err != nil {
			t.Fatal(err)
		}
		if sh := shapeOf(t, whole); len(sh.ends) != 1+4 {
			t.Fatalf("journal has %d lines, want header + 4 records", len(sh.ends))
		}
		checkEveryOffset(t, whole, ConfigFingerprint(c))
	})
}

// cutMatrix is a two-point matrix of two experiments each over the step
// campaign, at the given worker count.
func cutMatrix(t testing.TB, workers int) (*Campaign, *Matrix) {
	t.Helper()
	c := stepCampaign(t, 2, workers)
	c.Studies = nil
	return c, &Matrix{
		Name:  "cut",
		Seeds: []int64{1, 2},
		Build: func(Point) (*Study, error) { return stepCampaign(t, 2, 1).Studies[0], nil },
	}
}

// assertInIndexOrder checks a one-appender journal's shape: header, then
// record k for k = 0..n-1.
func assertInIndexOrder(t testing.TB, sh journalShape, n int) {
	t.Helper()
	if len(sh.ends) != 1+n {
		t.Fatalf("journal has %d lines, want header + %d records", len(sh.ends), n)
	}
	for i := 1; i < len(sh.ends); i++ {
		if sh.keys[i].Index != i-1 {
			t.Fatalf("line %d is record %+v; want records in index order", i, sh.keys[i])
		}
	}
}

// TestJournalGroupCommitFsyncs counts the journal's fsyncs through the
// campaign metrics: a workers-1 study of N experiments pays the header and
// one round per record — N+1; Close writes nothing — and a workers-2 matrix
// never pays more, with every record on disk once RunMatrix returns.
func TestJournalGroupCommitFsyncs(t *testing.T) {
	const n = 4
	fsyncs := func(c *Campaign) uint64 {
		cm := c.Obs.CampaignMetrics()
		if got, app := cm.JournalFsyncSeconds.Count(), cm.JournalAppendSeconds.Count(); got != app {
			t.Fatalf("%d fsyncs but %d appends observed; both are per commit", got, app)
		}
		return cm.JournalFsyncSeconds.Count()
	}
	t.Run("workers 1", func(t *testing.T) {
		c := stepCampaign(t, n, 1)
		c.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs(c); got != n+1 {
			t.Errorf("%d fsyncs for %d experiments, want %d", got, n, n+1)
		}
		whole, err := os.ReadFile(JournalPath(c.Checkpoint.Dir))
		if err != nil {
			t.Fatal(err)
		}
		assertInIndexOrder(t, shapeOf(t, whole), n)
	})
	t.Run("workers 2 matrix", func(t *testing.T) {
		c, m := cutMatrix(t, 2) // 2 points x 2 experiments
		c.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := RunMatrix(context.Background(), c, m); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs(c); got > n+1 {
			t.Errorf("%d fsyncs for %d experiments, want at most %d", got, n, n+1)
		}
		sum, err := SummarizeJournal(c.Checkpoint.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Complete() != n || sum.Appending || sum.Torn {
			t.Errorf("after RunMatrix: %d complete, appending %v, torn %v; want %d, false, false",
				sum.Complete(), sum.Appending, sum.Torn, n)
		}
	})
}

// TestJournalCommitErrorIsSticky: once a commit round fails, the appenders
// waiting on it, every later append, and Close all return the error — and
// none of them hangs. The failure is a write to the journal's file closed
// under the live committer.
func TestJournalCommitErrorIsSticky(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
	j, err := openCampaignJournal(c)
	if err != nil {
		t.Fatal(err)
	}
	sj := j.study(c, c.Studies[0], "steps")
	if err := sj.record(&ExperimentRecord{Study: "steps", Index: 0, Completed: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}

	const appenders = 3
	errs := make(chan error, appenders+2)
	go func() {
		var wg sync.WaitGroup
		for i := 1; i <= appenders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- sj.record(&ExperimentRecord{Study: "steps", Index: i, Completed: true})
			}()
		}
		wg.Wait()
		errs <- sj.record(&ExperimentRecord{Study: "steps", Index: appenders + 1, Completed: true})
		errs <- j.Close()
	}()
	timeout := time.After(10 * time.Second)
	for i := 0; i < appenders+2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, os.ErrClosed) {
				t.Errorf("result %d: %v, want the failed commit's %v", i, err, os.ErrClosed)
			}
		case <-timeout:
			t.Fatalf("journal hung after a failed commit: %d of %d calls returned", i, appenders+2)
		}
	}
}

// FuzzReadJournal: whatever the bytes, the one journal reader returns —
// never panics — and what it trusts is self-consistent: the trusted offset
// ends a line, re-reading the trusted prefix alone finds the same records
// with nothing in doubt, and the verdict-decoding readers (which also
// type-check the fields they decode) never trust more than the loader.
func FuzzReadJournal(f *testing.F) {
	goldens, err := filepath.Glob("../../testdata/golden_*.journal")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden journals to seed from: %v", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte{}, b...), "not json\n"...))
	}
	f.Add([]byte(`{"journal":{"Version":2,"Campaign":"c","Fingerprint":"f"}}` + "\n" + pinAcceptedRaw + "\n" + pinDiscarded + "\n"))
	f.Add([]byte(`{"journal":{"Version":1}}` + "\n" + pinDiscarded + "\n" + `{"done":{"Point":"pin/point","Index":4}}` + "\n"))
	f.Add([]byte(`{"record":{"Point":"p"}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		read := func(b []byte) (journalScan, []string, error) {
			var keys []string
			scan, err := readJournal(bytes.NewReader(b), "fuzz", func(rec *journalRecord[json.RawMessage]) {
				keys = append(keys, fmt.Sprintf("%s/%d", rec.Point, rec.Index))
			})
			return scan, keys, err
		}
		scan, keys, err := read(data)
		if err != nil {
			return // a foreign file or version: refused whole
		}
		if scan.offset < 0 || scan.offset > int64(len(data)) || scan.offset > 0 && data[scan.offset-1] != '\n' {
			t.Fatalf("trusted offset %d of %d does not end a line", scan.offset, len(data))
		}
		again, keys2, err := read(data[:scan.offset])
		if err != nil || again.offset != scan.offset || again.tail != tailClean || !reflect.DeepEqual(keys, keys2) {
			t.Fatalf("re-reading the trusted prefix: %+v %v (err %v), first read %+v %v", again, keys2, err, scan, keys)
		}
		verdicts := 0
		vscan, err := readJournal(bytes.NewReader(data), "fuzz", func(*journalRecord[RecordSummary]) { verdicts++ })
		if err != nil || vscan.offset > scan.offset || verdicts > len(keys) {
			t.Fatalf("verdict reader trusts %d bytes, %d records (err %v); the loader %d and %d", vscan.offset, verdicts, err, scan.offset, len(keys))
		}
	})
}
