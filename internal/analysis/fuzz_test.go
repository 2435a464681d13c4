package analysis

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenGlobalDocs returns the §5.7 text of every global timeline the
// golden journals hold, one per journaled record.
func goldenGlobalDocs(f *testing.F) []string {
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
// journal line through Global.UnmarshalJSON — arbitrary text. It must
// never panic, and whatever it accepts must survive its own encoding:
// Decode∘Encode is the identity on global timelines.
func FuzzDecodeGlobal(f *testing.F) {
	for _, doc := range goldenGlobalDocs(f) {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
	}
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := DecodeString(doc)
		if err != nil {
			return
		}
		enc, err := EncodeString(g)
		if err != nil {
			t.Fatalf("a decoded global timeline does not encode: %v", err)
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
