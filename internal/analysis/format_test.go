package analysis

import (
	"strings"
	"testing"

	"repro/internal/timeline"
)

func TestGlobalEncodeDecodeRoundTrip(t *testing.T) {
	g, _ := buildElection(t, 100, 30_000, 70_000)
	b, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	got, err := DecodeString(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if got.Reference != g.Reference {
		t.Errorf("reference = %q", got.Reference)
	}
	if len(got.Events) != len(g.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(g.Events))
	}
	for i := range g.Events {
		w, e := g.Events[i], got.Events[i]
		if w.Machine != e.Machine || w.Kind != e.Kind || w.State != e.State ||
			w.Event != e.Event || w.Fault != e.Fault || w.Host != e.Host ||
			w.Local != e.Local || w.Ref != e.Ref {
			t.Errorf("event %d: got %+v, want %+v", i, e, w)
		}
	}
	if len(got.Machines) != len(g.Machines) {
		t.Errorf("machines = %v, want %v", got.Machines, g.Machines)
	}
	// The decoded timeline must be checkable identically.
	specs := map[string][]timeline.Entry{}
	_ = specs
}

func TestGlobalDecodeErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"no header", "S m s e h 1 2 3\nend_global_timeline\n"},
		{"no end", "global_timeline r\n"},
		{"short S", "global_timeline r\nS m s e h 1 2\nend_global_timeline\n"},
		{"short F", "global_timeline r\nF m f h 1 2\nend_global_timeline\n"},
		{"bad number", "global_timeline r\nS m s e h x 2 3\nend_global_timeline\n"},
		{"unknown record", "global_timeline r\nQ m s e h 1 2 3\nend_global_timeline\n"},
		{"bad header", "global_timeline\nend_global_timeline\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeString(tc.doc); err == nil {
				t.Errorf("accepted %q", tc.doc)
			}
		})
	}
}

func TestGlobalDecodeSkipsComments(t *testing.T) {
	doc := "# produced by makeglobal\nglobal_timeline ref\n\nS m A e h 1 1 1\nend_global_timeline\n"
	g, err := DecodeString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 1 || g.Events[0].State != "A" {
		t.Errorf("events = %+v", g.Events)
	}
}

func TestGlobalEncodeSkipsNonProjected(t *testing.T) {
	g := &Global{Reference: "r"}
	g.Events = append(g.Events, Event{Kind: timeline.Note, Machine: "m"})
	text, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(text), "Note") {
		t.Errorf("note leaked into global format:\n%s", text)
	}
}
