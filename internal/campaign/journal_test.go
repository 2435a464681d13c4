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
// at most one round per record — rounds batch whatever queued during the
// last fsync; Close writes nothing — and a workers-2 matrix never pays
// more, with every record on disk once RunMatrix returns.
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
		if got := fsyncs(c); got < 2 || got > n+1 {
			t.Errorf("%d fsyncs for %d experiments, want 2 to %d", got, n, n+1)
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

// eventLog is a progress watcher that keeps every event it sees.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) watch(ev obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) all() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Event(nil), l.events...)
}

// TestJournalRoundBatchesQueuedAppends: appends do not wait for the disk.
// N appends queued before the committer starts all return, and its first
// round writes all N lines with one fsync, then emits their N experiment
// events in queue order. (Fails if an append waits for its round: the
// appends would hang with no committer running.)
func TestJournalRoundBatchesQueuedAppends(t *testing.T) {
	const n = 5
	c := stepCampaign(t, n, 1)
	c.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
	var log eventLog
	c.Obs.Watch(log.watch)
	f, err := os.OpenFile(filepath.Join(t.TempDir(), journalName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j := &journal{f: f, entries: make(map[journalKey]journalRecord[json.RawMessage]), cm: c.Obs.CampaignMetrics()}
	sj := j.study(c, c.Studies[0], "steps")
	p := &progress{sink: c.Obs, point: "steps", experiments: n}
	returned := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := sj.record(&ExperimentRecord{Study: "steps", Index: i, Completed: true}, p); err != nil {
				returned <- err
				return
			}
		}
		returned <- nil
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends waited for a committer that is not running")
	}
	j.start()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Obs.CampaignMetrics().JournalFsyncSeconds.Count(); got != 1 {
		t.Errorf("%d fsyncs for %d queued appends, want 1 round", got, n)
	}
	whole, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(whole, []byte("\n")); lines != n {
		t.Errorf("the round wrote %d lines, want %d", lines, n)
	}
	events := log.all()
	if len(events) != n {
		t.Fatalf("%d events after the round, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Kind != obs.EventExperiment || ev.Index != i || ev.Completed != i+1 {
			t.Errorf("event %d = %+v, want experiment %d, completed %d", i, ev, i, i+1)
		}
	}
}

// TestJournalCommitErrorIsSticky: once a commit round fails, the next
// append and Close return the error, and nothing hangs. No experiment event
// fires for the failed round's records, while the study-done event queued
// behind them still does, with the durable count. The failure is a write to
// the journal's file closed under the live committer. (Fails if the
// committer emits events for a failed round, or forgets its error.)
func TestJournalCommitErrorIsSticky(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
	c.Obs = &obs.Sink{}
	var log eventLog
	durable := make(chan struct{}, 1)
	done := make(chan struct{})
	c.Obs.Watch(func(ev obs.Event) {
		log.watch(ev)
		switch ev.Kind {
		case obs.EventExperiment:
			select {
			case durable <- struct{}{}:
			default:
			}
		case obs.EventStudyDone:
			close(done)
		}
	})
	j, err := openCampaignJournal(c)
	if err != nil {
		t.Fatal(err)
	}
	sj := j.study(c, c.Studies[0], "steps")
	p := &progress{sink: c.Obs, point: "steps", experiments: 5}
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("journal hung waiting for %s", what)
		}
	}
	if err := sj.record(&ExperimentRecord{Study: "steps", Index: 0, Completed: true}, p); err != nil {
		t.Fatal(err)
	}
	wait(durable, "the first record's event")
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}

	// Queued before the committer's next round fails, so each append
	// returns nil — or the error, if that round already failed.
	for i := 1; i <= 3; i++ {
		if err := sj.record(&ExperimentRecord{Study: "steps", Index: i, Completed: true}, p); err != nil && !errors.Is(err, os.ErrClosed) {
			t.Fatalf("append %d: %v, want nil or the failed commit's %v", i, err, os.ErrClosed)
		}
	}
	sj.event(p, obs.EventStudyDone)
	wait(done, "the study-done event") // every round before it has failed

	if err := sj.record(&ExperimentRecord{Study: "steps", Index: 4, Completed: true}, p); !errors.Is(err, os.ErrClosed) {
		t.Errorf("append after the failed round: %v, want %v", err, os.ErrClosed)
	}
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	select {
	case err := <-closed:
		if !errors.Is(err, os.ErrClosed) {
			t.Errorf("Close: %v, want the failed commit's %v", err, os.ErrClosed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a failed commit")
	}
	events := log.all()
	if len(events) != 2 || events[0].Kind != obs.EventExperiment || events[0].Index != 0 ||
		events[1].Kind != obs.EventStudyDone || events[1].Completed != 1 {
		t.Errorf("events %+v; want experiment 0, then study-done with 1 completed", events)
	}
}

// TestProgressEventMeansDurable: with a journal, an experiment event is
// emitted only once the record is on disk — a watcher reading
// checkpoint.jsonl at every experiment event of a two-worker journaled
// matrix finds that record's line — and each point's study-done event
// follows its last experiment event. (Fails if the committer emits a
// round's events before writing it.)
func TestProgressEventMeansDurable(t *testing.T) {
	c, m := cutMatrix(t, 2)
	dir := t.TempDir()
	c.Checkpoint = &Checkpoint{Dir: dir}
	c.Obs = &obs.Sink{}
	var (
		mu      sync.Mutex
		missing []string
	)
	var log eventLog
	c.Obs.Watch(func(ev obs.Event) {
		log.watch(ev)
		if ev.Kind != obs.EventExperiment {
			return
		}
		// The committer's goroutine runs this: no t.Fatal here.
		whole, err := os.ReadFile(JournalPath(dir))
		line := fmt.Sprintf(`{"record":{"Point":%q,"Index":%d,`, ev.Point, ev.Index)
		if err != nil || !bytes.Contains(whole, []byte(line)) {
			mu.Lock()
			missing = append(missing, fmt.Sprintf("%s/%d (%v)", ev.Point, ev.Index, err))
			mu.Unlock()
		}
	})
	if _, err := RunMatrix(context.Background(), c, m); err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("experiment events before their record was on disk: %v", missing)
	}
	seen := map[string]int{}
	finished := map[string]bool{}
	for _, ev := range log.all() {
		switch ev.Kind {
		case obs.EventExperiment:
			if finished[ev.Point] {
				t.Errorf("point %s: experiment %d reported after its study-done", ev.Point, ev.Index)
			}
			seen[ev.Point]++
		case obs.EventStudyDone:
			if ev.Completed != seen[ev.Point] || ev.Completed != ev.Experiments {
				t.Errorf("point %s: study-done reports %d of %d after %d experiment events",
					ev.Point, ev.Completed, ev.Experiments, seen[ev.Point])
			}
			finished[ev.Point] = true
		}
	}
	if len(finished) != 2 || seen[m.Points()[0].Name()] != 2 || seen[m.Points()[1].Name()] != 2 {
		t.Errorf("events per point %v, done %v; want 2 experiments and a study-done for each of 2 points", seen, finished)
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
