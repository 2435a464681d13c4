package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/faultexpr"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// A fuzz input is a record's fields in declaration order, read by
// fuzzSource and written by fuzzSink, its inverse, which turns the seed
// records into fuzz inputs. Integers are varints, a float its 8 bits, a
// string a length and its bytes, and a slice or map a count n: 0 for nil,
// else n-1 elements. Past the end of the input every read is a zero.

// maxFuzzLen bounds the elements of one slice or map a fuzz input builds.
const maxFuzzLen = 64

type fuzzSource struct{ b []byte }

func (s *fuzzSource) uint() uint64 {
	v, n := binary.Uvarint(s.b)
	if n <= 0 {
		s.b = nil
		return 0
	}
	s.b = s.b[n:]
	return v
}

func (s *fuzzSource) int() int64 {
	v, n := binary.Varint(s.b)
	if n <= 0 {
		s.b = nil
		return 0
	}
	s.b = s.b[n:]
	return v
}

func (s *fuzzSource) bool() bool { return s.uint()&1 == 1 }

func (s *fuzzSource) str() string {
	n := min(s.uint(), uint64(len(s.b)))
	v := string(s.b[:n])
	s.b = s.b[n:]
	return v
}

func (s *fuzzSource) float() float64 {
	if len(s.b) < 8 {
		s.b = nil
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(s.b))
	s.b = s.b[8:]
	return f
}

// count reads a slice's or map's length, or -1 for nil.
func (s *fuzzSource) count() int {
	n := s.uint()
	if n == 0 {
		return -1
	}
	return int(min(n-1, maxFuzzLen))
}

func fuzzSlice[T any](s *fuzzSource, elem func() T) []T {
	n := s.count()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func fuzzMap[V any](s *fuzzSource, val func() V) map[string]V {
	n := s.count()
	if n < 0 {
		return nil
	}
	m := make(map[string]V, n)
	for range n {
		k := s.str()
		m[k] = val()
	}
	return m
}

// fuzzRecord builds the journal record a fuzz input describes. A fault's
// expression and action are their spec texts, parsed; a text that does not
// parse leaves the field nil — an expression-less fault is one a local
// timeline's Validate refuses.
func fuzzRecord(in []byte) *journalRecord[*ExperimentRecord] {
	s := &fuzzSource{b: in}
	r := &journalRecord[*ExperimentRecord]{Point: s.str(), Index: int(s.int()), Fingerprint: s.str(), Experiment: new(ExperimentRecord)}
	e := r.Experiment
	e.Study, e.Index, e.Completed, e.Accepted = s.str(), int(s.int()), s.bool(), s.bool()
	e.Outcomes = fuzzMap(s, s.str)
	e.Bounds = fuzzMap(s, func() clocksync.Bounds {
		return clocksync.Bounds{AlphaLo: s.float(), AlphaHi: s.float(), BetaLo: s.float(), BetaHi: s.float()}
	})
	if s.bool() {
		e.Global = &analysis.Global{Reference: s.str(), Events: fuzzSlice(s, func() analysis.Event {
			return analysis.Event{Machine: s.str(), Kind: timeline.Kind(s.int()), State: s.str(), Event: s.str(), Fault: s.str(), Host: s.str(),
				Local: vclock.Ticks(s.int()), Ref: analysis.Interval{Lo: vclock.Ticks(s.int()), Hi: vclock.Ticks(s.int())}}
		})}
	}
	if s.bool() {
		e.Report = &analysis.Report{
			Injections: fuzzSlice(s, func() analysis.InjectionCheck {
				return analysis.InjectionCheck{Machine: s.str(), Fault: s.str(), At: analysis.Interval{Lo: vclock.Ticks(s.int()), Hi: vclock.Ticks(s.int())},
					Correct: s.bool(), Reason: s.str()}
			}),
			MissingFaults: fuzzSlice(s, s.str),
			Accepted:      s.bool(),
		}
	}
	e.AnalysisError, e.ClockStepSuspected = s.str(), s.bool()
	e.ClockStepHosts = fuzzSlice(s, s.str)
	e.ClockStepBounds = fuzzMap(s, func() StepBound { return StepBound{Lo: vclock.Ticks(s.int()), Hi: vclock.Ticks(s.int())} })
	e.Locals = fuzzSlice(s, func() *timeline.Local {
		if !s.bool() {
			return nil
		}
		l := &timeline.Local{Meta: timeline.Meta{Owner: s.str(), Machines: fuzzSlice(s, s.str), GlobalStates: fuzzSlice(s, s.str), Events: fuzzSlice(s, s.str)}}
		l.Faults = fuzzSlice(s, func() faultexpr.Spec {
			f := faultexpr.Spec{Name: s.str()}
			f.Expr, _ = faultexpr.Parse(s.str())
			f.Mode = faultexpr.Mode(s.int())
			f.Action, _ = faultexpr.ParseActionCall(s.str())
			return f
		})
		l.Hosts = fuzzSlice(s, s.str)
		l.Entries = fuzzSlice(s, func() timeline.Entry {
			return timeline.Entry{Kind: timeline.Kind(s.int()), Event: s.str(), NewState: s.str(), Fault: s.str(), Host: s.str(), Text: s.str(), Time: vclock.Ticks(s.int())}
		})
		return l
	})
	e.Stamps = fuzzSlice(s, func() clocksync.StampedMessage {
		return clocksync.StampedMessage{SendHost: s.str(), RecvHost: s.str(), SendTime: vclock.Ticks(s.int()), RecvTime: vclock.Ticks(s.int())}
	})
	return r
}

type fuzzSink struct{ b []byte }

func (k *fuzzSink) uint(v uint64)   { k.b = binary.AppendUvarint(k.b, v) }
func (k *fuzzSink) int(v int64)     { k.b = binary.AppendVarint(k.b, v) }
func (k *fuzzSink) str(v string)    { k.uint(uint64(len(v))); k.b = append(k.b, v...) }
func (k *fuzzSink) float(f float64) { k.b = binary.LittleEndian.AppendUint64(k.b, math.Float64bits(f)) }

func (k *fuzzSink) bool(v bool) {
	if v {
		k.uint(1)
	} else {
		k.uint(0)
	}
}

func (k *fuzzSink) count(isNil bool, n int) {
	if isNil {
		k.uint(0)
	} else {
		k.uint(uint64(n) + 1)
	}
}

func sinkSlice[T any](k *fuzzSink, s []T, elem func(T)) {
	k.count(s == nil, len(s))
	for _, v := range s {
		elem(v)
	}
}

func sinkMap[V any](k *fuzzSink, m map[string]V, val func(V)) {
	k.count(m == nil, len(m))
	for _, key := range sortedKeys(nil, m) {
		k.str(key)
		val(m[key])
	}
}

// fuzzInput is fuzzRecord's inverse: the fuzz input that builds r.
func fuzzInput(r *journalRecord[*ExperimentRecord]) []byte {
	k := &fuzzSink{}
	k.str(r.Point)
	k.int(int64(r.Index))
	k.str(r.Fingerprint)
	e := r.Experiment
	k.str(e.Study)
	k.int(int64(e.Index))
	k.bool(e.Completed)
	k.bool(e.Accepted)
	sinkMap(k, e.Outcomes, k.str)
	sinkMap(k, e.Bounds, func(b clocksync.Bounds) {
		for _, f := range [...]float64{b.AlphaLo, b.AlphaHi, b.BetaLo, b.BetaHi} {
			k.float(f)
		}
	})
	k.bool(e.Global != nil)
	if g := e.Global; g != nil {
		k.str(g.Reference)
		sinkSlice(k, g.Events, func(ev analysis.Event) {
			k.str(ev.Machine)
			k.int(int64(ev.Kind))
			for _, s := range [...]string{ev.State, ev.Event, ev.Fault, ev.Host} {
				k.str(s)
			}
			for _, n := range [...]vclock.Ticks{ev.Local, ev.Ref.Lo, ev.Ref.Hi} {
				k.int(int64(n))
			}
		})
	}
	k.bool(e.Report != nil)
	if rep := e.Report; rep != nil {
		sinkSlice(k, rep.Injections, func(c analysis.InjectionCheck) {
			k.str(c.Machine)
			k.str(c.Fault)
			k.int(int64(c.At.Lo))
			k.int(int64(c.At.Hi))
			k.bool(c.Correct)
			k.str(c.Reason)
		})
		sinkSlice(k, rep.MissingFaults, k.str)
		k.bool(rep.Accepted)
	}
	k.str(e.AnalysisError)
	k.bool(e.ClockStepSuspected)
	sinkSlice(k, e.ClockStepHosts, k.str)
	sinkMap(k, e.ClockStepBounds, func(b StepBound) {
		k.int(int64(b.Lo))
		k.int(int64(b.Hi))
	})
	sinkSlice(k, e.Locals, func(l *timeline.Local) {
		k.bool(l != nil)
		if l == nil {
			return
		}
		k.str(l.Owner)
		for _, names := range [][]string{l.Machines, l.GlobalStates, l.Events} {
			sinkSlice(k, names, k.str)
		}
		sinkSlice(k, l.Faults, func(f faultexpr.Spec) {
			var expr, action string
			if f.Expr != nil {
				expr = f.Expr.String()
			}
			if f.Action != nil {
				action = f.Action.String()
			}
			k.str(f.Name)
			k.str(expr)
			k.int(int64(f.Mode))
			k.str(action)
		})
		sinkSlice(k, l.Hosts, k.str)
		sinkSlice(k, l.Entries, func(en timeline.Entry) {
			k.int(int64(en.Kind))
			for _, s := range [...]string{en.Event, en.NewState, en.Fault, en.Host, en.Text} {
				k.str(s)
			}
			k.int(int64(en.Time))
		})
	})
	sinkSlice(k, e.Stamps, func(m clocksync.StampedMessage) {
		k.str(m.SendHost)
		k.str(m.RecvHost)
		k.int(int64(m.SendTime))
		k.int(int64(m.RecvTime))
	})
	return k.b
}

// seedRecords are the records the writer wrote or writes: the pinned
// records, the golden journals' records as a resume reads them back, and
// the coverage records.
func seedRecords(t testing.TB) []*journalRecord[*ExperimentRecord] {
	t.Helper()
	var recs []*journalRecord[*ExperimentRecord]
	var d lineDecoder
	for _, body := range writerBodies(t) {
		r := resumed(&d, body)
		if r == nil {
			t.Fatalf("the strict decoder refuses a writer body: %.80s", body)
		}
		recs = append(recs, r)
	}
	return recs
}

// checkEncoder journals r behind an already queued line and checks the
// queue against encoding/json: the line json.Marshal's body framed, or —
// where json.Marshal fails — a refusal that leaves the queue as it was.
func checkEncoder(t *testing.T, j *journal, r *journalRecord[*ExperimentRecord]) {
	t.Helper()
	const queued = "an earlier line\n"
	j.lines = append(j.lines[:0], queued...)
	j.queue = append(j.queue[:0], pending{})
	want, werr := json.Marshal(r)
	err := j.append(*r, nil)
	switch {
	case werr != nil && err == nil:
		t.Fatalf("json.Marshal fails (%v), the encoder writes %s", werr, j.lines[len(queued):])
	case werr != nil:
		if string(j.lines) != queued || len(j.queue) != 1 {
			t.Fatalf("a refused record (%v) changed the queue: %q, %d entries", err, j.lines, len(j.queue))
		}
	case err != nil:
		t.Fatalf("the encoder refuses a record json.Marshal writes (%v): %s", err, want)
	default:
		if got, want := j.lines[len(queued):], frame(nil, recordTag, want); !bytes.Equal(got, want) || len(j.queue) != 2 {
			t.Fatalf("the encoder's line differs from encoding/json's (%d entries queued)\n got: %s\nwant: %s", len(j.queue), got, want)
		}
	}
}

// TestFuzzSeedsAreTheWriterRecords: each seed input builds back a record
// that json.Marshal writes as it writes the seed record, so the fuzz corpus
// starts from the records the writer wrote.
func TestFuzzSeedsAreTheWriterRecords(t *testing.T) {
	for _, r := range seedRecords(t) {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(fuzzRecord(fuzzInput(r)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the seed input builds another record (%v)\n got: %s\nwant: %s", err, got, want)
		}
	}
}

// FuzzRecordEncoderMatchesEncodingJSON: whatever the record — any string
// bytes, any float bits, nil or empty maps and slices, nil timelines and
// report, any stamps, local timelines that do or do not validate — the line
// append queues is json.Marshal's body framed, or both refuse the record
// and the queue is left as it was. Seeded from the records the writer wrote
// or writes.
func FuzzRecordEncoderMatchesEncodingJSON(f *testing.F) {
	for _, r := range seedRecords(f) {
		f.Add(fuzzInput(r))
	}
	j := &journal{} // one fuzzing process's journal, its encoder's scratch reused input to input
	f.Fuzz(func(t *testing.T, in []byte) {
		checkEncoder(t, j, fuzzRecord(in))
	})
}

// TestRecordEncoderRefusesWhatMarshalRefuses: a record with a NaN or
// infinite bound, or a local timeline that does not validate, is refused,
// as json.Marshal refuses it, and the queue is left as it was; the journal
// then takes the next record as if the refused one had never come.
func TestRecordEncoderRefusesWhatMarshalRefuses(t *testing.T) {
	_, raw, _ := pinnedRecords()
	invalid := *raw.Locals[0]
	invalid.Entries = append(slices.Clone(invalid.Entries), timeline.Entry{Kind: timeline.StateChange, Event: "UNKNOWN", NewState: "S1"})
	var refused []*ExperimentRecord
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := *raw
		rec.Bounds = map[string]clocksync.Bounds{"h1": {BetaLo: 1, BetaHi: 1}, "h2": {AlphaLo: -4, AlphaHi: v, BetaLo: 1, BetaHi: 1}}
		refused = append(refused, &rec)
	}
	rec := *raw
	rec.Locals = []*timeline.Local{raw.Locals[0], &invalid}
	refused = append(refused, &rec)

	j := &journal{}
	for _, bad := range refused {
		r := &journalRecord[*ExperimentRecord]{Point: "pin/point", Index: 3, Fingerprint: "00f1", Experiment: bad}
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("json.Marshal writes the record meant to be refused")
		}
		checkEncoder(t, j, r)
		if len(j.lines) != len("an earlier line\n") {
			t.Fatalf("the record was not refused")
		}
		checkEncoder(t, j, &journalRecord[*ExperimentRecord]{Point: "pin/point", Index: 3, Fingerprint: "00f1", Experiment: raw})
	}
}

// TestRecordAppendAllocatesNothing: once the journal's queue and encoder
// scratch are warm, appending the pinned accepted record — maps, bounds, a
// global timeline and a report — allocates nothing.
func TestRecordAppendAllocatesNothing(t *testing.T) {
	accepted, _, _ := pinnedRecords()
	j := &journal{}
	rec := journalRecord[*ExperimentRecord]{Point: "pin/point", Index: accepted.Index, Fingerprint: "00f1", Experiment: accepted}
	appendOne := func() {
		j.lines, j.queue = j.lines[:0], j.queue[:0]
		if err := j.append(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	if string(j.lines) != pinAccepted+"\n" {
		t.Fatalf("journal line changed:\n got: %s\nwant: %s", j.lines, pinAccepted)
	}
	if n := testing.AllocsPerRun(100, appendOne); n != 0 {
		t.Fatalf("a warm append allocates %.1f objects, want 0", n)
	}
}
