package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

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

// TestStatusCountsEachKeyOnce: a key journaled twice — a re-run's record
// supersedes the earlier copy, as it does for a resume — is one complete
// experiment in the summary and one record in the walk, with the verdict
// of its last copy.
func TestStatusCountsEachKeyOnce(t *testing.T) {
	header, rec := goldenLines(t)
	rejected := strings.Replace(rec, `"Completed":true,"Accepted":true`, `"Completed":true,"Accepted":false`, 1)
	if rejected == rec {
		t.Fatal("the golden record line has no accepted verdict to flip")
	}
	for _, tc := range []struct {
		name     string
		records  string
		accepted int
	}{
		{"same copy twice", rec + rec, 1},
		{"rejected copy supersedes", rec + rejected, 0},
		{"accepted copy supersedes", rejected + rec, 1},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(JournalPath(dir), []byte(header+tc.records), 0o644); err != nil {
			t.Fatal(err)
		}
		sum, err := SummarizeJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []PointProgress{{Point: "golden", Complete: 1, Accepted: tc.accepted, Fingerprint: "fa8d1ad7bcd21c8e"}}
		if !reflect.DeepEqual(sum.Points, want) {
			t.Errorf("%s: summary %+v, want %+v", tc.name, sum.Points, want)
		}
		var walked []RecordSummary
		if _, _, err := WalkJournal(dir, func(r RecordSummary) { walked = append(walked, r) }); err != nil {
			t.Fatal(err)
		}
		if len(walked) != 1 || walked[0].Accepted != (tc.accepted == 1) {
			t.Errorf("%s: walk %+v, want one record, accepted %v", tc.name, walked, tc.accepted == 1)
		}
	}
}

// refRead is the line-by-line reference reader the batched readJournal
// must agree with: one line at a time, through bufio, each decoded with
// encoding/json into shape E, stopping where readJournal stops.
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
		var line journalLine[E]
		if json.Unmarshal(raw, &line) != nil {
			scan.tail = tailGarbled
			return scan, nil
		}
		switch {
		case scan.offset == 0:
			if line.Journal == nil || line.Journal.Version != journalVersion {
				return scan, errors.New("no header")
			}
			scan.header = *line.Journal
		case line.Record != nil:
			onRecord(line.Record)
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
	scan, err := readJournal(bytes.NewReader(data), name, func(rec *journalRecord[journaledExperiment]) {
		keys = append(keys, journalKey{rec.Point, rec.Index})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, want := refKeys[json.RawMessage](t, data)
	check("resume", scan, keys, ref, want)

	keys = nil
	scan, err = readJournal(bytes.NewReader(data), name, func(rec *journalRecord[RecordSummary]) {
		keys = append(keys, journalKey{rec.Point, rec.Index})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, want = refKeys[RecordSummary](t, data)
	check("verdict", scan, keys, ref, want)
}

// TestJournalReaderBatches pins the batched, parallel readJournal to the
// line-by-line reader: over a journal of several batches, with a garbled
// line, a torn line and a line only the resume shape trusts each put just
// after a batch boundary, with a line longer than a batch, and with a torn
// or garbled last line, it hands on the same records in the same order and
// trusts the same prefix. Run under -race in CI.
func TestJournalReaderBatches(t *testing.T) {
	header, rec := goldenLines(t)
	var clean bytes.Buffer
	clean.WriteString(header)
	for i := 0; clean.Len() < 3*journalBatchBytes+journalBatchBytes/2; i++ {
		clean.WriteString(strings.Replace(rec, `"Index":0`, fmt.Sprintf(`"Index":%d`, i), 2))
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
	typeBad := strings.Replace(rec, `"Completed":true`, `"Completed":"yes"`, 1) // the resume shape keeps it; the verdict shape does not
	long := strings.Replace(rec, `"Index":0`, `"Index":99999`, 2)
	long = strings.Replace(long, `"Completed":true`, `"AnalysisError":"`+strings.Repeat("x", journalBatchBytes+100)+`","Completed":true`, 1)

	checkReader(t, "clean", data)
	checkReader(t, "garbled after the first boundary", insert(ends[0], "not json\n"))
	checkReader(t, "torn after the second boundary", insert(ends[1], torn))
	checkReader(t, "type error after the third boundary", insert(ends[2], typeBad))
	checkReader(t, "a line longer than a batch", insert(ends[1], long))
	checkReader(t, "torn last line", append(append([]byte{}, data...), rec[:len(rec)/2]...))
	checkReader(t, "garbled last line", append(append([]byte{}, data...), "{}\n"...))
	checkReader(t, "cut at a boundary", data[:ends[1]])
	checkReader(t, "cut after a boundary", data[:ends[1]+10])
}

// FuzzJournalLookup: whatever the journal bytes, what a resume serves for
// each key is what the line-by-line reading serves — the last whole line of
// the key, its Experiment decoded alone into a fresh ExperimentRecord with
// encoding/json: the same record, the same decode error, or (no Experiment)
// a miss. A key looked up under another fingerprint is refused without
// being consumed, a key is served once, and nothing else is served.
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
		// A null experiment is a zero record, not a miss.
		prefix + "null}}\n",
		// No experiment at all is a miss.
		`{"record":{"Point":"golden","Index":0}}` + "\n",
		// Global text that does not decode.
		strings.Replace(rec, `global_timeline h1`, `global_timeline`, 1),
		// A type error inside the experiment.
		strings.Replace(rec, `"Completed":true`, `"Completed":"yes"`, 1),
		// A repeated Experiment key: the last copy wins whole.
		prefix + `{"Index":7,"Accepted":true},"Experiment":{"Study":"later"}}}` + "\n",
		// A case-folded repeat, null last.
		prefix + `{"Index":7},"experiment":null}}` + "\n",
		// A repeat spelled with an escape.
		prefix + `{"Index":7},"Experim\u0065nt":{"Completed":true}}}` + "\n",
		// A later line of a key supersedes an earlier one.
		rec + strings.Replace(rec, `"Completed":true,"Accepted":true`, `"Completed":true,"Accepted":false`, 1),
		pinAcceptedRaw + "\n" + pinDiscarded + "\n",
	} {
		f.Add([]byte(header + seed))
	}

	path := JournalPath(f.TempDir()) // one file per fuzzing process, rewritten by every input
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The line-by-line reading: the last whole line of each key, up
		// to the first line the json.RawMessage shape does not trust.
		type line struct {
			fp  string
			exp json.RawMessage
		}
		want := map[journalKey]line{}
		scan, err := refRead(data, func(rec *journalRecord[json.RawMessage]) {
			want[journalKey{rec.Point, rec.Index}] = line{rec.Fingerprint, rec.Experiment}
		})
		if err != nil {
			return // a foreign file or version: refused whole
		}

		fh, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		j := &journal{f: fh}
		if err := j.load(scan.header.Fingerprint); err != nil {
			t.Fatalf("load: %v", err)
		}
		if len(j.entries) != len(want) {
			t.Fatalf("resume holds %d keys, the line-by-line reading %d", len(j.entries), len(want))
		}
		for k, l := range want {
			sj := &studyJournal{j: j, point: k.Point, fp: l.fp}
			if _, err := (&studyJournal{j: j, point: k.Point, fp: l.fp + "x"}).lookup(k.Index); err == nil {
				t.Fatalf("%v: served under another fingerprint", k)
			}
			got, err := sj.lookup(k.Index)
			var wantRec *ExperimentRecord
			var wantErr error
			if l.exp != nil {
				wantRec = new(ExperimentRecord)
				if wantErr = json.Unmarshal(l.exp, wantRec); wantErr != nil {
					wantRec = nil
				}
			}
			switch {
			case wantErr != nil:
				msg := fmt.Sprintf("campaign: checkpoint: journaled record %s/%d: %v", k.Point, k.Index, wantErr)
				if err == nil || err.Error() != msg {
					t.Fatalf("%v: lookup %+v, %v; want the error %q", k, got, err, msg)
				}
			case err != nil:
				t.Fatalf("%v: lookup error %v; encoding/json decodes %s", k, err, l.exp)
			case !reflect.DeepEqual(got, wantRec):
				t.Fatalf("%v: lookup %+v; encoding/json decodes %+v from %s", k, got, wantRec, l.exp)
			}
			if again, err := sj.lookup(k.Index); again != nil || err != nil {
				t.Fatalf("%v: served twice", k)
			}
		}
		if len(j.entries) != 0 {
			t.Fatalf("%d keys left after every key was served", len(j.entries))
		}
	})
}
