package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goldenGlobalDocs returns the §5.7 text of every global timeline the
// golden journals hold, one per journaled record.
func goldenGlobalDocs(f testing.TB) []string {
	paths, err := filepath.Glob("../../testdata/golden_*.journal")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden journals to seed from: %v", err)
	}
	var docs []string
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(file)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Record *struct{ Experiment struct{ Global string } } `json:"record"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			if line.Record != nil && line.Record.Experiment.Global != "" {
				docs = append(docs, line.Record.Experiment.Global)
			}
		}
		file.Close()
		if err := sc.Err(); err != nil {
			f.Fatal(err)
		}
	}
	return docs
}

// FuzzDecodeGlobal feeds the global timeline decoder — reachable from any
// journal line through Global.UnmarshalText — arbitrary text. It must
// never panic; it must agree with the scanner-based reference decoder it
// replaced on every document (the same timeline, or the same error);
// AppendText must write what the fmt-based reference encoder it replaced
// writes for every timeline the decoder accepts; and that encoding must
// decode back: Decode∘Encode is the identity on global timelines.
//
// Mutation-checked: AppendText writing e.Ref.Hi where e.Ref.Lo belongs
// fails on the first golden seed.
func FuzzDecodeGlobal(f *testing.F) {
	for _, doc := range goldenGlobalDocs(f) {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
		f.Add(strings.ReplaceAll(doc, "\n", "\r\n"))
		f.Add(strings.Replace(doc, " ", "\u00a0", 3))
	}
	f.Add("# c\n global_timeline\vr \nS m s e h 1 2 3\fx\n\tF m f h 1 2 3\nend_global_timeline")
	f.Add("global_timeline r\nS m s e h 1 2 3 4 5 6 7\nS m\u0085s e h 1 2 3\nend_global_timeline\n")
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := DecodeString(doc)
		ref, refErr := referenceDecode(strings.NewReader(doc))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("decode error %v, the reference decoder's %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("decoded %+v, the reference decoder %+v", g, ref)
		}
		var want bytes.Buffer
		if err := referenceEncode(&want, g); err != nil {
			t.Fatal(err)
		}
		appended, err := g.AppendText([]byte("prefix"))
		if err != nil {
			t.Fatalf("a decoded global timeline does not encode: %v", err)
		}
		if enc := string(appended); enc != "prefix"+want.String() {
			t.Fatalf("AppendText wrote\n%q\nthe reference encoder\n%q", enc[min(len(enc), len("prefix")):], want.String())
		}
		text, err := g.MarshalText()
		enc := string(text)
		if err != nil || enc != want.String() {
			t.Fatalf("MarshalText = %q, %v; want the reference encoder's %q", enc, err, want.String())
		}
		back, err := DecodeString(enc)
		if err != nil {
			t.Fatalf("decoding its own encoding: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, g) {
			t.Fatalf("Decode∘Encode changed the timeline:\n got: %+v\nwant: %+v", back, g)
		}
	})
}

// TestGlobalUnmarshalTextAllocs pins what decoding a journaled global
// timeline costs once warm: three allocations (the document's one string,
// the event and machine slices, each sized once), and nothing of the 64 KiB
// scanner buffer the decoder once allocated per call.
func TestGlobalUnmarshalTextAllocs(t *testing.T) {
	var doc []byte
	for _, d := range goldenGlobalDocs(t) {
		if len(d) > len(doc) {
			doc = []byte(d)
		}
	}
	var g Global
	decode := func() {
		if err := g.UnmarshalText(doc); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, decode)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once more
	t.Logf("%d-byte document, %d events: %.0f allocs, %d bytes per decode", len(doc), len(g.Events), allocs, perRun)
	if allocs > 3 {
		t.Errorf("decoding allocates %.0f times, budget 3", allocs)
	}
	if limit := uint64(4*len(doc) + 1024); perRun > limit {
		t.Errorf("decoding allocates %d bytes, budget %d (4× the document, plus 1 KiB)", perRun, limit)
	}
}

// journaled is where TestJournaledGlobalAllocs keeps its decoded timeline,
// so the Global is allocated as the journal's decoder allocates it.
var journaled *Global

// TestJournaledGlobalAllocs: a journal record's Global, decoded as the
// journal's decoder decodes it (a fresh Global, then UnmarshalText), costs
// at most four allocations for every golden journal's timeline: the text's
// copy, the Global, its Events and its Machines.
func TestJournaledGlobalAllocs(t *testing.T) {
	for i, doc := range goldenGlobalDocs(t) {
		b := []byte(doc)
		allocs := testing.AllocsPerRun(20, func() {
			journaled = new(Global)
			if err := journaled.UnmarshalText(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("golden timeline %d (%d machines, %d events): decoding allocates %.0f times, budget 4",
				i, len(journaled.Machines), len(journaled.Events), allocs)
		}
	}
}

// TestGlobalAppendTextAllocs pins what encoding a global timeline costs
// once the caller's buffer has room: nothing. MarshalText, the journal's
// encoder, allocates its text once.
func TestGlobalAppendTextAllocs(t *testing.T) {
	var doc string
	for _, d := range goldenGlobalDocs(t) {
		if len(d) > len(doc) {
			doc = d
		}
	}
	g, err := DecodeString(doc)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := g.AppendText(nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = g.AppendText(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendText into a buffer with room allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.MarshalText() }); allocs != 1 {
		t.Errorf("MarshalText allocates %.0f times, want 1", allocs)
	}
	if text, _ := g.MarshalText(); len(text) != cap(text) || string(text) != string(buf) {
		t.Errorf("MarshalText: %d bytes of %d allocated, equal to AppendText's: %v", len(text), cap(text), string(text) == string(buf))
	}
}
