package campaign

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/timeline"
)

// coverageRecords returns records that between them set every field of
// ExperimentRecord and of every type under it — the first sets them all —
// with strings that need every escape json.Marshal writes (<, >, &, U+2028,
// U+2029, control bytes, the quote and the backslash, and invalid UTF-8,
// which it writes as U+FFFD), floats it prints in exponent form, and
// Report's slices both nil and empty but non-nil.
func coverageRecords() []*ExperimentRecord {
	_, raw, _ := pinnedRecords()
	tricky := []string{
		"<a & b>",
		"line\u2028para\u2029end",
		"\x00\x01\x1f\x7f ctrl",
		"\b\f\n\r\t",
		`quote " slash / back \`,
		"bad \xff\xfe utf-8 \xc3",
		"héllo ✓ 𝄞",
	}
	var recs []*ExperimentRecord
	for i, s := range tricky {
		rec := *raw
		rec.Study = "study " + s
		rec.Index = i - 3
		rec.Outcomes = map[string]string{"m " + s: s, "plain": "exited"}
		rec.Bounds = map[string]clocksync.Bounds{
			"h1":     {AlphaLo: 1e-7, AlphaHi: 1e21, BetaLo: -2.5e-300, BetaHi: 6.02214076e23},
			"h " + s: {AlphaLo: -4000000.5, AlphaHi: 1.7976931348623157e308, BetaLo: 5e-324, BetaHi: 0.99994},
		}
		rec.Report = &analysis.Report{
			Injections: []analysis.InjectionCheck{
				{Machine: "m " + s, Fault: "f " + s, At: analysis.Interval{Lo: -5, Hi: 1 << 62}, Correct: true, Reason: "why " + s},
				{Machine: "beta", Fault: "bfault", At: analysis.Interval{Lo: 107, Hi: 147}, Correct: true, Reason: "held"},
			},
			MissingFaults: []string{"missing " + s, "other"},
			Accepted:      true,
		}
		rec.AnalysisError = "error " + s
		rec.ClockStepSuspected = true
		rec.ClockStepHosts = []string{"h2", "h " + s}
		rec.ClockStepBounds = map[string]StepBound{"h2": {Lo: -12, Hi: 34}, "h " + s: {Lo: -1 << 63, Hi: 1<<63 - 1}}
		rec.Stamps = append(rec.Stamps, clocksync.StampedMessage{SendHost: "h " + s, RecvHost: "h1", SendTime: -7, RecvTime: 1 << 40})
		recs = append(recs, &rec)
	}
	nilSlices := *recs[0]
	nilSlices.Report = &analysis.Report{Accepted: true}
	nilSlices.Locals = []*timeline.Local{raw.Locals[0], nil}
	emptySlices := *recs[1]
	emptySlices.Report = &analysis.Report{Injections: []analysis.InjectionCheck{}, MissingFaults: []string{}}
	return append(recs, &nilSlices, &emptySlices, new(ExperimentRecord))
}

// coverageBody is rec's record body as json.Marshal writes it, which is
// what append writes (FuzzRecordEncoderMatchesEncodingJSON).
func coverageBody(t testing.TB, rec *ExperimentRecord) []byte {
	t.Helper()
	b, err := json.Marshal(&journalRecord[*ExperimentRecord]{
		Point: "cover \u2028<&>\xff", Index: rec.Index, Fingerprint: "00f1", Experiment: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bodyOf returns a framed record line's body, or fails the test.
func bodyOf(t testing.TB, line string) []byte {
	t.Helper()
	body, tag := refUnframe([]byte(strings.TrimSuffix(line, "\n") + "\n"))
	if tag != `{"record":` {
		t.Fatalf("not a verified record line: %.80s", line)
	}
	return body
}

// writerBodies returns the record bodies the writer wrote or writes: the
// pinned lines', the golden journals' and the coverage records'.
func writerBodies(t testing.TB) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, line := range []string{pinAccepted, pinAcceptedRaw, pinDiscarded} {
		bodies = append(bodies, bodyOf(t, line))
	}
	goldens, err := filepath.Glob("../../testdata/golden_*.journal")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden journals: %v", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records := strings.SplitAfter(string(b), "\n")[1:]
		for _, line := range records[:len(records)-1] { // the last is empty
			bodies = append(bodies, bodyOf(t, line))
		}
	}
	for _, rec := range coverageRecords() {
		bodies = append(bodies, coverageBody(t, rec))
	}
	return bodies
}

// resumed decodes body whole with d, or returns nil.
func resumed(d *lineDecoder, body []byte) *journalRecord[*ExperimentRecord] {
	r := new(journalRecord[*ExperimentRecord])
	if !d.resume(body, r) {
		return nil
	}
	return r
}

// summarized decodes body's verdict fields with d, or returns nil.
func summarized(d *lineDecoder, body []byte) *journalRecord[RecordSummary] {
	r := new(journalRecord[RecordSummary])
	if !d.summary(body, r) {
		return nil
	}
	return r
}

// checkStrict checks the strict decoder against encoding/json on one
// record body: where it accepts the body whole it must give the record
// encoding/json decodes, and where it accepts the summary, the
// RecordSummary of json.Unmarshal's verdict fields. It returns which modes
// accepted.
func checkStrict(t testing.TB, d *lineDecoder, body []byte) (full, summary bool) {
	t.Helper()
	if got := resumed(d, body); got != nil {
		var want journalRecord[*ExperimentRecord]
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("strict decoder accepts %q; encoding/json: %v", body, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("strict decoder reads %q as\n%+v %+v;\nencoding/json as\n%+v %+v", body, got, got.Experiment, want, want.Experiment)
		}
		full = true
	}
	if got := summarized(d, body); got != nil {
		var want journalRecord[verdictFields]
		if err := json.Unmarshal(body, &want); err != nil || *got != refSummary(&want) {
			t.Fatalf("strict summary of %q is %+v; encoding/json's %+v (%v)", body, got, want, err)
		}
		summary = true
	}
	return full, summary
}

// TestStrictDecoderReadsWriterOutput: the strict decoder reads every body
// json.Marshal writes for a record. Every coverage record's body is
// accepted by both strict modes and decodes to what encoding/json gives.
func TestStrictDecoderReadsWriterOutput(t *testing.T) {
	var d lineDecoder
	for _, body := range writerBodies(t) {
		if full, summary := checkStrict(t, &d, body); !full || !summary {
			t.Errorf("the strict decoder refuses the writer's body (whole %v, summary %v): %s", full, summary, body)
		}
	}
}

// TestStrictDecoderKnowsEveryField fails when a field is added that the
// strict decoder does not know: experimentKeys must list ExperimentRecord's
// fields in order, its summary marks exactly the fields a RecordSummary is
// computed from (verdictFields, the reference reader's), and the first
// coverage record must set every field of every type under
// ExperimentRecord (timeline texts aside, which are one string each) — a
// new nested field set there makes TestStrictDecoderReadsWriterOutput fail
// until the decoder reads it. No type under ExperimentRecord may decode
// itself, other than the two timeline texts the decoder hands to
// UnmarshalText.
func TestStrictDecoderKnowsEveryField(t *testing.T) {
	typ := reflect.TypeOf(ExperimentRecord{})
	if typ.NumField() != len(experimentKeys) {
		t.Fatalf("ExperimentRecord has %d fields, experimentKeys %d", typ.NumField(), len(experimentKeys))
	}
	summary := reflect.TypeOf(verdictFields{})
	// A field is one a RecordSummary is computed from when clearing it in
	// the coverage record changes the record's summary, or the summary of
	// the record with its AnalysisError cleared (where Accepted counts).
	full := coverageRecords()[0]
	analysed := *full
	analysed.AnalysisError = ""
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if experimentKeys[i].key != `"`+name+`":` {
			t.Errorf("experimentKeys[%d] is %s, ExperimentRecord's field %d is %s", i, experimentKeys[i].key, i, name)
		}
		if _, ok := summary.FieldByName(name); ok != experimentKeys[i].summary {
			t.Errorf("experimentKeys marks %s summary %v; verdictFields has it: %v", name, experimentKeys[i].summary, ok)
		}
		read := false
		for _, base := range []*ExperimentRecord{full, &analysed} {
			rec := *base
			reflect.ValueOf(&rec).Elem().Field(i).SetZero()
			read = read || Summarize("", &rec) != Summarize("", base)
		}
		if read != experimentKeys[i].summary {
			t.Errorf("experimentKeys marks %s summary %v; Summarize reads it: %v", name, experimentKeys[i].summary, read)
		}
	}
	textual := reflect.TypeFor[encoding.TextUnmarshaler]()
	texts := map[reflect.Type]bool{reflect.TypeFor[*analysis.Global](): true, reflect.TypeFor[*timeline.Local](): true}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if p := reflect.PointerTo(v.Type()); p.Implements(textual) && !texts[p] || p.Implements(reflect.TypeFor[json.Unmarshaler]()) {
			t.Errorf("%s (%s) decodes itself; teach the strict decoder to call it", path, v.Type())
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				t.Errorf("%s is nil in the coverage record", path)
			} else if !texts[v.Type()] {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Map:
			if v.Len() == 0 {
				t.Errorf("%s is empty in the coverage record", path)
			}
			if v.Kind() == reflect.Slice {
				for i := range v.Len() {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			} else {
				for it := v.MapRange(); it.Next(); {
					walk(it.Value(), fmt.Sprintf("%s[%q]", path, it.Key()))
				}
			}
		default:
			if v.IsZero() {
				t.Errorf("%s is zero in the coverage record", path)
			}
		}
	}
	walk(reflect.ValueOf(coverageRecords()[0]), "ExperimentRecord")
}

// refusedBodies are record bodies the strict decoder must refuse in both
// modes, each an edit of the golden record's body that json.Marshal never
// writes.
func refusedBodies(t testing.TB) map[string]string {
	_, line := goldenLines(t)
	rec := string(bodyOf(t, line))
	exp := strings.Index(rec, `"Experiment":`) + len(`"Experiment":`)
	edit := func(old, new string) string {
		t.Helper()
		if !strings.Contains(rec, old) {
			t.Fatalf("the golden record body has no %s", old)
		}
		return strings.Replace(rec, old, new, 1)
	}
	return map[string]string{
		"reordered keys":   edit(`"Completed":true,"Accepted":true`, `"Accepted":true,"Completed":true`),
		"case-folded key":  edit(`"Accepted":true`, `"accepted":true`),
		"escaped key":      edit(`"Accepted":true`, `"Acc\u0065pted":true`),
		"duplicate key":    edit(`"Accepted":true`, `"Accepted":true,"Accepted":false`),
		"repeated record":  rec[:exp] + `{"Index":7},"Experiment":{"Study":"later"}}`,
		"inner whitespace": edit(`"Completed":true`, `"Completed": true`),
		"null experiment":  rec[:exp] + "null}",
		"global a number":  edit(`"Global":"global_timeline`, `"Global":123,"X":"`),
		"type error":       edit(`"Completed":true`, `"Completed":"yes"`),
		"unknown key":      edit(`"Completed":true`, `"Completed":true,"Aborted":true`),
		"header":           `{"Version":3,"Campaign":"c","Fingerprint":"f"}`,
		"no experiment":    `{"Point":"golden","Index":0,"Fingerprint":"fa8d1ad7bcd21c8e"}`,
		"trailing bytes":   rec + " ",
		"surrogate escape": edit(`"Study":"golden"`, `"Study":"\ud834\udd1e"`),
		"raw control byte": edit(`"Study":"golden"`, "\"Study\":\"gol\x01den\""),
		"invalid utf-8":    edit(`"Study":"golden"`, "\"Study\":\"gol\xffden\""),
		"index overflows":  edit(`"Index":0,"Completed"`, `"Index":9223372036854775808,"Completed"`),
		"fractional index": edit(`"Index":0,"Completed"`, `"Index":1.0,"Completed"`),
		"a whole v2 line":  `{"record":` + rec + `}`,
		"not json":         "not json",
		"empty":            "",
		// Nested past encoding/json's depth limit, in a value a summary skips.
		"deep nesting": edit(`"Outcomes":{`, `"Outcomes":{"deep":`+strings.Repeat("[", 10001)+strings.Repeat("]", 10001)+`,`),
	}
}

// TestStrictDecoderRefuses: a record body the writer does not write is
// refused by both strict modes. In a journal, its line with a stale sum —
// an edit in place — is a garbled tail; re-framed, it is a verified record
// line the strict decoder refuses, which is a bug, and the read is an error
// naming the file and the line, never a fallback.
func TestStrictDecoderRefuses(t *testing.T) {
	header, rec := goldenLines(t)
	var d lineDecoder
	for name, body := range refusedBodies(t) {
		if full, summary := checkStrict(t, &d, []byte(body)); full || summary {
			t.Errorf("%s: accepted (whole %v, summary %v): %s", name, full, summary, body)
		}
		stale := `{"record":` + body + rec[len(rec)-len(`,"sum":"00000000"}`+"\n"):]
		scan, err := readJournal(bytes.NewReader([]byte(header+stale+rec)), name, func(*journalRecord[RecordSummary]) {
			t.Errorf("%s: a record handed on past a stale sum", name)
		})
		if err != nil || scan.tail != tailGarbled || scan.offset != int64(len(header)) {
			t.Errorf("%s: with a stale sum, read to %+v (%v); want a garbled tail after the header", name, scan, err)
		}
		_, err = readJournal(bytes.NewReader([]byte(header+rec+string(refFrame(`{"record":`, []byte(body))))), "j.jsonl",
			func(*journalRecord[*ExperimentRecord]) {})
		if err == nil || !strings.Contains(err.Error(), "j.jsonl line 3") {
			t.Errorf("%s: re-framed, err = %v; want an error naming j.jsonl line 3", name, err)
		}
	}
}

// TestStrictDecoderDoesNotAlias: a record the strict decoder returns owns
// its memory, whether its strings were copied from the line or served from
// the decoder's names table. The first body is read twice, from two
// buffers — the second read's short strings come from the table — and
// then decoding a second, different line on the same decoder (its escaped
// strings unescaped into the same scratch, its names taking slots over)
// and overwriting both buffers leave both reads' strings, maps and Globals
// as they were. Mutation check, in a copy of the tree: str storing a first
// sight that aliases the line (unsafe.String over the body's bytes) fails
// both reads. Run under -race in CI.
func TestStrictDecoderDoesNotAlias(t *testing.T) {
	recs := coverageRecords()
	first, second := coverageBody(t, recs[0]), coverageBody(t, recs[2])
	again := bytes.Clone(first)
	var d lineDecoder
	copied := resumed(&d, first)
	served := resumed(&d, again)
	if copied == nil || served == nil {
		t.Fatal("the strict decoder refuses a coverage body")
	}
	if unsafe.StringData(served.Point) != unsafe.StringData(copied.Point) ||
		unsafe.StringData(served.Experiment.Study) != unsafe.StringData(copied.Experiment.Study) {
		t.Fatal("the second read of a body did not serve its short strings from the names table")
	}
	var before [2][]byte
	var point, global [2]string
	for i, got := range []*journalRecord[*ExperimentRecord]{copied, served} {
		before[i] = wireBytes(t, got.Experiment)
		point[i], global[i] = got.Point, got.Experiment.Global.Events[0].Machine
	}
	if resumed(&d, second) == nil || summarized(&d, second) == nil {
		t.Fatal("the strict decoder refuses a coverage body")
	}
	for _, line := range [][]byte{first, again} {
		for i := range line {
			line[i] = 'x'
		}
	}
	for i, got := range []*journalRecord[*ExperimentRecord]{copied, served} {
		if after := wireBytes(t, got.Experiment); !bytes.Equal(after, before[i]) {
			t.Errorf("read %d of the first body changed after the decoder read another body:\n got: %s\nwant: %s", i+1, after, before[i])
		}
		if got.Point != point[i] || got.Experiment.Global.Events[0].Machine != global[i] {
			t.Errorf("read %d of the first body: its key or Global changed: %q, %q", i+1, got.Point, got.Experiment.Global.Events[0].Machine)
		}
	}
}

// namedBody is a record body that sets s as its point name and
// fingerprint, and as its study, an outcome's machine and state, an
// injection's machine, fault and reason, a missing fault and a clock-step
// host.
func namedBody(t testing.TB, s string) []byte {
	t.Helper()
	_, raw, _ := pinnedRecords()
	rec := *raw
	rec.Study = s
	rec.Outcomes = map[string]string{s: s, "beta": "exited"}
	rec.Report = &analysis.Report{
		Injections:    []analysis.InjectionCheck{{Machine: s, Fault: s, Reason: s}},
		MissingFaults: []string{s},
	}
	rec.ClockStepHosts = []string{s, "h2"}
	b, err := json.Marshal(&journalRecord[*ExperimentRecord]{Point: s, Index: 1, Fingerprint: s, Experiment: &rec})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// slotCollision returns two different short strings that share a slot in
// lineDecoder.names.
func slotCollision(t testing.TB) (string, string) {
	t.Helper()
	first := make(map[uint8]string)
	for i := range 1 << 12 {
		s := fmt.Sprintf("m%d", i)
		slot := nameSlot([]byte(s))
		if other, ok := first[slot]; ok {
			return other, s
		}
		first[slot] = s
	}
	t.Fatal("no two names share a slot")
	return "", ""
}

// TestReusedDecoderMatchesFresh: a decoder whose names table already holds
// strings decodes every body, whole and as a summary, to what a fresh
// decoder and encoding/json decode. One decoder reads, in turn, bodies
// whose names are two different strings sharing a slot (each after the
// other), the same text written plainly and with an escape ("h1" and
// "h\u0031"), a string one byte past maxNameLen and one at it, and the
// empty string; then every body the writer writes. Run under -race in CI.
//
// Mutation-checked: str returning a filled slot's string without comparing
// it to the bytes read fails on the second of the strings sharing a slot.
func TestReusedDecoderMatchesFresh(t *testing.T) {
	a, b := slotCollision(t)
	long := strings.Repeat("n", maxNameLen+1)
	var bodies [][]byte
	for _, s := range []string{a, b, a, long, long[1:], "", b, long} {
		bodies = append(bodies, namedBody(t, s))
	}
	plain := namedBody(t, "h1")
	escaped := bytes.ReplaceAll(plain, []byte(`"h1"`), []byte(`"h\u0031"`))
	if bytes.Equal(escaped, plain) {
		t.Fatal("the escaped body is the plain one")
	}
	bodies = append(bodies, plain, escaped, plain, escaped)
	bodies = append(bodies, writerBodies(t)...)
	var d lineDecoder
	for i, body := range bodies {
		got, fresh := resumed(&d, body), resumed(new(lineDecoder), body)
		if got == nil || fresh == nil {
			t.Fatalf("body %d: refused (reused %v, fresh %v): %s", i, got != nil, fresh != nil, body)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("body %d: the reused decoder reads\n%+v %+v;\na fresh one\n%+v %+v", i, got, got.Experiment, fresh, fresh.Experiment)
		}
		checkStrict(t, &d, body) // the reused decoder against encoding/json, whole and as a summary
		if got, fresh := summarized(&d, body), summarized(new(lineDecoder), body); got == nil || fresh == nil || *got != *fresh {
			t.Fatalf("body %d: the reused decoder's summary %+v, a fresh one's %+v", i, got, fresh)
		}
	}
}

// TestJournalReadAllocBudget holds the read path's allocations per record:
// a resume's load (journal.load) and a summary walk (walkJournal, which
// Status and the report make), over the golden election record journaled
// under distinct keys, long minus short journal so the file's own costs
// cancel. Measured at 11.0 and 0.0, in both builds, when the budget was
// last tightened (from 13 and 1, -race 17 and 3), with decoding goroutines
// claiming runs of lines; 11.0 and 0.0 since a batch's lines decode into
// one reused array of slots, the summary walk's record included (1.1
// while each summary was an object of its own); 11.1 and 1.1 with the
// decoder serving the repeated names from its table (32.1 and 3.1 when
// every string was copied out, 54.1 and 12.1 when every line went through
// encoding/json); the slack of a -race build is for the pools -race drops
// at random.
func TestJournalReadAllocBudget(t *testing.T) {
	loadBudget, walkBudget := 11.5, 0.5
	if raceBuild {
		loadBudget, walkBudget = 13, 1
	}
	header, rec := goldenLines(t)
	var h journalLine[struct{}]
	if err := json.Unmarshal([]byte(header), &h); err != nil {
		t.Fatal(err)
	}
	fp := h.Journal.Fingerprint
	dir := t.TempDir()
	write := func(n int) {
		var b strings.Builder
		b.WriteString(header)
		for i := range n {
			b.WriteString(reframe(t, strings.Replace(rec, `"Index":0`, fmt.Sprintf(`"Index":%d`, i), 2)))
		}
		if err := os.WriteFile(JournalPath(dir), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := func(read func()) float64 {
		const short, long = 64, 576
		write(short)
		a := testing.AllocsPerRun(5, read)
		write(long)
		return (testing.AllocsPerRun(5, read) - a) / (long - short)
	}
	load := perRecord(func() {
		f, err := os.OpenFile(JournalPath(dir), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := (&journal{f: f}).load(fp); err != nil {
			t.Fatal(err)
		}
	})
	walk := perRecord(func() {
		if _, err := walkJournal(dir, func(*journalRecord[RecordSummary]) {}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per record: resume load %.1f, summary walk %.1f", load, walk)
	if load > loadBudget || walk > walkBudget {
		t.Fatalf("reading a record allocates %.1f objects for a resume (budget %.0f), %.1f for a summary (budget %.0f)",
			load, loadBudget, walk, walkBudget)
	}
}

// FuzzStrictLineMatchesEncodingJSON: whatever the record body, the strict
// decoder either refuses it or decodes what encoding/json decodes — the
// whole record a resume serves, and the summary the read-only readers
// count. Seeded from the bodies the writer wrote or writes and the bodies
// it must refuse.
func FuzzStrictLineMatchesEncodingJSON(f *testing.F) {
	for _, body := range writerBodies(f) {
		f.Add(body)
	}
	for _, body := range refusedBodies(f) {
		f.Add([]byte(body))
	}
	var d lineDecoder // one fuzzing process's decoder, its scratch reused input to input
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStrict(t, &d, body)
	})
}
