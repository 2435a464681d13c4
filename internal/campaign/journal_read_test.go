package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/intern"
)

// The strict decoder's names table is an intern.Table; its tests name the
// table's slot function and length limit as the decoder's.
var nameSlot = intern.Slot

const maxNameLen = intern.MaxLen

// journalLine is one line of the JSONL journal as encoding/json reads it,
// its sum aside: exactly one of the two fields is set. E is the shape the
// test gives the journaled experiment.
type journalLine[E any] struct {
	Journal *journalHeader    `json:"journal,omitempty"`
	Record  *journalRecord[E] `json:"record,omitempty"`
}

// goldenLines returns the golden election journal's header line and its
// first record line (point "golden", index 0, accepted), each with its
// newline.
func goldenLines(t testing.TB) (header, record string) {
	t.Helper()
	b, err := os.ReadFile("../../testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	return lines[0], lines[1]
}

// refFrame is frame's reference: tag, body, and the body's CRC-32C in
// eight lowercase hex digits, as fmt prints them.
func refFrame(tag string, body []byte) []byte {
	return fmt.Appendf(nil, "%s%s,\"sum\":\"%08x\"}\n", tag, body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// refUnframe is unframe's reference: a line verifies when framing its body
// again under its tag gives the line byte for byte.
func refUnframe(line []byte) (body []byte, tag string) {
	for _, tag := range []string{`{"record":`, `{"journal":`} {
		rest, ok := bytes.CutPrefix(line, []byte(tag))
		if ok && len(rest) >= len(`,"sum":"00000000"}`+"\n") {
			body := rest[:len(rest)-len(`,"sum":"00000000"}`+"\n")]
			if bytes.Equal(refFrame(tag, body), line) {
				return body, tag
			}
		}
	}
	return nil, ""
}

// reframe recomputes the sum of a framed line, its newline optional, after
// an edit of its body: the reader trusts the edited line as the writer's.
func reframe(t testing.TB, line string) string {
	t.Helper()
	line = strings.TrimSuffix(line, "\n")
	cut := len(line) - len(`,"sum":"00000000"}`)
	tag, body, ok := strings.Cut(line[:max(cut, 0)], ":")
	if !ok || !strings.HasSuffix(line, `"}`) {
		t.Fatalf("not a framed line: %.80s", line)
	}
	return string(refFrame(tag+":", []byte(body)))
}

// unframed returns a journal as a build before journal version 3 wrote
// it: each line's sum deleted and the header's version set to v.
func unframed(journal []byte, v int) []byte {
	b := regexp.MustCompile(`,"sum":"[0-9a-f]{8}"}\n`).ReplaceAll(journal, []byte("}\n"))
	return bytes.Replace(b, []byte(fmt.Sprintf(`{"journal":{"Version":%d,`, journalVersion)), []byte(fmt.Sprintf(`{"journal":{"Version":%d,`, v)), 1)
}

// TestStatusCountsEachKeyOnce: a key journaled twice — a re-run's record
// supersedes the earlier copy, as it does for a resume — is one complete
// experiment in the summary and one record in the walk, with the verdict
// of its last copy. An edited copy that is not re-framed is not trusted.
func TestStatusCountsEachKeyOnce(t *testing.T) {
	header, rec := goldenLines(t)
	edited := strings.Replace(rec, `"Completed":true,"Accepted":true`, `"Completed":true,"Accepted":false`, 1)
	if edited == rec {
		t.Fatal("the golden record line has no accepted verdict to flip")
	}
	rejected := reframe(t, edited)
	for _, tc := range []struct {
		name     string
		records  string
		accepted int
		torn     bool
	}{
		{"same copy twice", rec + rec, 1, false},
		{"rejected copy supersedes", rec + rejected, 0, false},
		{"accepted copy supersedes", rejected + rec, 1, false},
		{"an edit with the old sum is damage", rec + edited, 1, true},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(JournalPath(dir), []byte(header+tc.records), 0o644); err != nil {
			t.Fatal(err)
		}
		sum, err := SummarizeJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []PointProgress{{Point: "golden", Fingerprint: "fa8d1ad7bcd21c8e", Tally: Tally{Experiments: 1, Accepted: tc.accepted, Rejected: 1 - tc.accepted}}}
		if !reflect.DeepEqual(sum.Points, want) || sum.Torn != tc.torn {
			t.Errorf("%s: summary %+v, torn %v; want %+v, torn %v", tc.name, sum.Points, sum.Torn, want, tc.torn)
		}
		var walked []RecordSummary
		if _, err := walkJournal(dir, func(r *journalRecord[RecordSummary]) { walked = append(walked, r.Experiment) }); err != nil {
			t.Fatal(err)
		}
		if len(walked) != 1 || (walked[0].Verdict == Accepted) != (tc.accepted == 1) {
			t.Errorf("%s: walk %+v, want one record, accepted %v", tc.name, walked, tc.accepted == 1)
		}
	}
}

// verdictFields is a record's Experiment as encoding/json reads the fields
// experimentKeys marks summary: the reference for the summary decoder,
// which computes a RecordSummary from them.
type verdictFields struct {
	Index              int
	Completed          bool
	Accepted           bool
	AnalysisError      string
	ClockStepSuspected bool
}

// refSummary is a reference-read record in the summary decoder's shape.
func refSummary(r *journalRecord[verdictFields]) journalRecord[RecordSummary] {
	f := &r.Experiment
	rec := ExperimentRecord{Index: f.Index, Completed: f.Completed, Accepted: f.Accepted, AnalysisError: f.AnalysisError, ClockStepSuspected: f.ClockStepSuspected}
	return journalRecord[RecordSummary]{Point: r.Point, Index: r.Index, Fingerprint: r.Fingerprint, Experiment: Summarize("", &rec)}
}

// errRefused is refRead's error for a journal readJournal must refuse: a
// first line that is not a verified header of this version, or a verified
// record line whose body does not decode.
var errRefused = errors.New("refused")

// refRead is the line-by-line reference reader the batched readJournal
// must agree with: one line at a time, through bufio, each verified by
// refUnframe and its body decoded with encoding/json into shape E, stopping
// where readJournal stops.
func refRead[E any](data []byte, onRecord func(*journalRecord[E])) (journalScan, error) {
	var (
		scan journalScan
		br   = bufio.NewReader(bytes.NewReader(data))
	)
	for {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(raw) > 0 {
				scan.tail = tailAppending
			}
			return scan, nil
		}
		body, tag := refUnframe(raw)
		switch {
		case scan.offset == 0:
			var h journalHeader
			if tag != `{"journal":` || json.Unmarshal(body, &h) != nil || h.Version != journalVersion {
				return scan, errRefused
			}
			scan.header = h
		case tag == `{"record":`:
			var rec journalRecord[E]
			if json.Unmarshal(body, &rec) != nil {
				return scan, errRefused
			}
			onRecord(&rec)
		default:
			scan.tail = tailGarbled
			return scan, nil
		}
		scan.offset += int64(len(raw))
	}
}

// refKeys is refRead's scan and the keys of the records it reads.
func refKeys[E any](t *testing.T, data []byte) (journalScan, []journalKey) {
	t.Helper()
	var keys []journalKey
	scan, err := refRead(data, func(rec *journalRecord[E]) { keys = append(keys, journalKey{rec.Point, rec.Index}) })
	if err != nil {
		t.Fatal(err)
	}
	return scan, keys
}

// batchEnds returns the offsets at which readJournal's batches of data
// end, for data with no line longer than a batch: each at the last newline
// within a batch's size of the last, the size starting at a quarter of
// journalBatchBytes and doubling up to it.
func batchEnds(data []byte) []int {
	var ends []int
	for start, size := 0, journalBatchBytes/4; start < len(data); size = min(2*size, journalBatchBytes) {
		window := data[start:min(len(data), start+size)]
		end := bytes.LastIndexByte(window, '\n') + 1
		if end == 0 {
			break
		}
		start += end
		ends = append(ends, start)
	}
	return ends
}

// checkReader reads data with readJournal in both of its decoding shapes
// — the resume loader's and the verdict readers' — and checks each against
// the reference reader: the same keys in the same order, the same trusted
// offset and the same tail.
func checkReader(t *testing.T, name string, data []byte) {
	t.Helper()
	check := func(shape string, scan journalScan, keys []journalKey, ref journalScan, want []journalKey) {
		t.Helper()
		if scan != ref || !reflect.DeepEqual(keys, want) {
			t.Errorf("%s, %s shape: read %d keys to offset %d, tail %d; reference %d keys to %d, tail %d",
				name, shape, len(keys), scan.offset, scan.tail, len(want), ref.offset, ref.tail)
		}
	}
	var keys []journalKey
	scan, err := readJournal(bytes.NewReader(data), name, func(rec *journalRecord[*ExperimentRecord]) {
		keys = append(keys, journalKey{rec.Point, rec.Index})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, want := refKeys[*ExperimentRecord](t, data)
	check("resume", scan, keys, ref, want)

	keys = nil
	scan, err = readJournal(bytes.NewReader(data), name, func(rec *journalRecord[RecordSummary]) {
		keys = append(keys, journalKey{rec.Point, rec.Index})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, want = refKeys[verdictFields](t, data)
	check("verdict", scan, keys, ref, want)
}

// recordLine is r's journal line as append writes it, framed by refFrame.
func recordLine(t testing.TB, r journalRecord[*ExperimentRecord]) string {
	t.Helper()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(refFrame(`{"record":`, b))
}

// TestJournalReaderBatches pins the batched, parallel readJournal to the
// line-by-line reader: over a journal of several batches, with a garbled
// line, a torn line and a line edited in place (still JSON, its sum stale)
// each put just after a batch boundary, with a line longer than a batch,
// and with a torn or garbled last line, it hands on the same records in
// the same order and trusts the same prefix. Run under -race in CI.
func TestJournalReaderBatches(t *testing.T) {
	header, rec := goldenLines(t)
	var clean bytes.Buffer
	clean.WriteString(header)
	for i := 0; clean.Len() < 3*journalBatchBytes+journalBatchBytes/2; i++ {
		clean.WriteString(reframe(t, strings.Replace(rec, `"Index":0`, fmt.Sprintf(`"Index":%d`, i), 2)))
	}
	data := clean.Bytes()
	ends := batchEnds(data)
	if len(ends) < 4 {
		t.Fatalf("journal of %d bytes spans %d batches, want at least 4", len(data), len(ends))
	}
	insert := func(at int, line string) []byte {
		return append(append(append([]byte{}, data[:at]...), line...), data[at:]...)
	}
	torn := rec[:len(rec)/2] + "\n"
	edited := strings.Replace(rec, `"Index":0`, `"Index":7`, 2)
	var long journalRecord[*ExperimentRecord]
	if err := json.Unmarshal([]byte(rec), &journalLine[*ExperimentRecord]{Record: &long}); err != nil {
		t.Fatal(err)
	}
	long.Index, long.Experiment.Index = 99999, 99999
	long.Experiment.AnalysisError = strings.Repeat("x", journalBatchBytes+100)

	checkReader(t, "clean", data)
	checkReader(t, "garbled after the first boundary", insert(ends[0], "not json\n"))
	checkReader(t, "torn after the second boundary", insert(ends[1], torn))
	checkReader(t, "edited after the third boundary", insert(ends[2], edited))
	checkReader(t, "a line longer than a batch", insert(ends[1], recordLine(t, long)))
	checkReader(t, "torn last line", append(append([]byte{}, data...), rec[:len(rec)/2]...))
	checkReader(t, "garbled last line", append(append([]byte{}, data...), "{}\n"...))
	checkReader(t, "cut at a boundary", data[:ends[1]])
	checkReader(t, "cut after a boundary", data[:ends[1]+10])
}

// checkServed resumes the journal bytes data and checks what the resume
// serves against the line-by-line reference reading: for each key the last
// verified line's record, decoded by encoding/json, and the line itself
// what the writer writes for that record. A key looked up under another
// fingerprint is refused without being consumed, a key is served once, and
// nothing else is served. It returns the served records by key, or
// errRefused when the resume refuses the journal, as the reference does.
func checkServed(t *testing.T, path string, data []byte) (map[journalKey]*ExperimentRecord, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	type line struct {
		fp  string
		rec *ExperimentRecord
	}
	want := map[journalKey]line{}
	scan, refErr := refRead(data, func(rec *journalRecord[*ExperimentRecord]) {
		want[journalKey{rec.Point, rec.Index}] = line{rec.Fingerprint, rec.Experiment}
	})
	fh, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	j := &journal{f: fh}
	err = j.load(scan.header.Fingerprint)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("load: %v; the line-by-line reading: %v", err, refErr)
	}
	if err != nil {
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			t.Fatalf("a refused resume changed the journal (%v)", rerr)
		}
		return nil, errRefused
	}
	if len(j.entries) != len(want) {
		t.Fatalf("resume holds %d keys, the line-by-line reading %d", len(j.entries), len(want))
	}
	served := map[journalKey]*ExperimentRecord{}
	for k, l := range want {
		sj := &studyJournal{j: j, point: k.Point, fp: l.fp}
		if _, err := (&studyJournal{j: j, point: k.Point, fp: l.fp + "x"}).lookup(k.Index); err == nil {
			t.Fatalf("%v: served under another fingerprint", k)
		}
		got, err := sj.lookup(k.Index)
		if err != nil || !reflect.DeepEqual(got, l.rec) {
			t.Fatalf("%v: lookup %+v, %v; encoding/json decodes %+v", k, got, err, l.rec)
		}
		if written := recordLine(t, journalRecord[*ExperimentRecord]{Point: k.Point, Index: k.Index, Fingerprint: l.fp, Experiment: got}); !bytes.Contains(data[:scan.offset], []byte("\n"+written)) {
			t.Fatalf("%v: the served record re-frames to a line the journal does not hold:\n%s", k, written)
		}
		if again, err := sj.lookup(k.Index); again != nil || err != nil {
			t.Fatalf("%v: served twice", k)
		}
		served[k] = got
	}
	if len(j.entries) != 0 {
		t.Fatalf("%d keys left after every key was served", len(j.entries))
	}
	return served, nil
}

// FuzzJournalLookup: whatever the journal bytes, what a resume serves for
// each key is what the line-by-line reading serves (checkServed): the last
// verified line of the key, decoded by encoding/json, and every line
// trusted re-frames to its own bytes. An edited line — a repeated,
// case-folded or escaped key, a null experiment, a type error — is not the
// writer's, and ends the trusted journal.
func FuzzJournalLookup(f *testing.F) {
	header, rec := goldenLines(f)
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
	}
	exp := strings.Index(rec, `"Experiment":`) + len(`"Experiment":`)
	prefix := rec[:exp]
	for _, seed := range []string{
		// Lines edited in place: each still JSON, none the writer's.
		prefix + "null}}\n",
		`{"record":{"Point":"golden","Index":0}}` + "\n",
		strings.Replace(rec, `global_timeline h1`, `global_timeline`, 1),
		strings.Replace(rec, `"Completed":true`, `"Completed":"yes"`, 1),
		prefix + `{"Index":7,"Accepted":true},"Experiment":{"Study":"later"}}}` + "\n",
		prefix + `{"Index":7},"experiment":null}}` + "\n",
		prefix + `{"Index":7},"Experim\u0065nt":{"Completed":true}}}` + "\n",
		// A later line of a key supersedes an earlier one.
		rec + reframe(f, strings.Replace(rec, `"Completed":true,"Accepted":true`, `"Completed":true,"Accepted":false`, 1)),
		pinAcceptedRaw + "\n" + pinDiscarded + "\n",
	} {
		f.Add([]byte(header + seed))
	}

	path := JournalPath(f.TempDir()) // one file per fuzzing process, rewritten by every input
	f.Fuzz(func(t *testing.T, data []byte) {
		checkServed(t, path, data)
	})
}

// TestDecodeRunsMatchOneAtATime: decoding a batch with goroutines that
// claim runs of 1, 3, 64 or more than all of the lines gives each line
// the tag, verdict and record that one-at-a-time claiming gives it, in
// both record shapes. The batch interleaves four points' records as two
// workers journal them, with a garbled line, a torn line and a header
// among them. Run under -race in CI.
func TestDecodeRunsMatchOneAtATime(t *testing.T) {
	header, rec := goldenLines(t)
	var lines [][]byte
	add := func(line string) { lines = append(lines, []byte(line)) }
	add(header)
	for i := range 40 {
		point := fmt.Sprintf(`"Point":"netsplit/wan/seed%d"`, i%4)
		add(reframe(t, strings.Replace(strings.Replace(rec, `"Index":0`, fmt.Sprintf(`"Index":%d`, i/4), 2), `"Point":"golden"`, point, 1)))
		switch i {
		case 9:
			add("not json\n")
		case 22:
			add(rec[:len(rec)/2] + "\n")
		}
	}
	checkRuns[*ExperimentRecord](t, lines)
	checkRuns[RecordSummary](t, lines)
}

func checkRuns[E *ExperimentRecord | RecordSummary](t *testing.T, lines [][]byte) {
	t.Helper()
	decoders := func() []*lineDecoder { return []*lineDecoder{new(lineDecoder), new(lineDecoder)} }
	want := decodeBatch[E](lines, decoders(), nil, 1)
	ok := 0
	for _, l := range want {
		if l.ok {
			ok++
		}
	}
	if ok != 40 {
		t.Fatalf("one at a time: %d of %d lines decode, want the 40 records", ok, len(lines))
	}
	for _, run := range []int{1, 3, 64, len(lines) + 1} {
		got := decodeBatch[E](lines, decoders(), nil, run)
		for i := range lines {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%T, runs of %d: line %d decodes to %+v, one at a time to %+v", got[i].rec, run, i, got[i], want[i])
			}
		}
	}
}
