package timeline_test

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/faultexpr"
	"repro/internal/timeline"
)

// goldenLocals projects every global timeline the golden journals hold
// onto each of its machines: one local timeline per machine, a HOST_CHANGE
// wherever the machine's host changes, then its state changes and
// injections at their local times — what the machine's recorder wrote.
func goldenLocals(f *testing.F) []*timeline.Local {
	paths, err := filepath.Glob("../../testdata/golden_*.journal")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden journals to seed from: %v", err)
	}
	var locals []*timeline.Local
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(file)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Record *struct {
					Experiment struct{ Global *analysis.Global }
				} `json:"record"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			if line.Record == nil || line.Record.Experiment.Global == nil {
				continue
			}
			g := line.Record.Experiment.Global
			for _, m := range g.Machines {
				locals = append(locals, localOf(g, m))
			}
		}
		file.Close()
		if err := sc.Err(); err != nil {
			f.Fatal(err)
		}
	}
	return locals
}

func localOf(g *analysis.Global, machine string) *timeline.Local {
	l := &timeline.Local{Meta: timeline.Meta{Owner: machine, Machines: g.Machines}}
	add := func(list []string, s string) []string {
		if !slices.Contains(list, s) {
			list = append(list, s)
		}
		return list
	}
	host, state := "", "INIT"
	for _, e := range g.MachineEvents(machine) {
		if e.Host != host {
			host = e.Host
			l.Hosts = add(l.Hosts, host)
			l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.HostChange, Host: host, Time: e.Local})
		}
		switch e.Kind {
		case timeline.StateChange:
			state = e.State
			l.GlobalStates = add(l.GlobalStates, e.State)
			l.Events = add(l.Events, e.Event)
			l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.StateChange, Event: e.Event, NewState: e.State, Host: host, Time: e.Local})
		case timeline.FaultInjection:
			l.Faults = append(l.Faults, faultexpr.Spec{Name: e.Fault, Expr: faultexpr.MustParse("(" + machine + ":" + state + ")"), Mode: faultexpr.Once})
			l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.FaultInjection, Fault: e.Fault, Host: host, Time: e.Local})
		}
	}
	return l
}

// FuzzDecodeTimeline feeds the local timeline decoder — reachable from any
// journal line through Local.UnmarshalText — arbitrary text. It must never
// panic; it must agree with the scanner-based reference decoder it
// replaced on every document (the same timeline, or the same error);
// AppendText must write what the fmt-based reference encoder it replaced
// writes for every timeline the decoder accepts; and that encoding must
// decode back: Decode∘Encode is the identity on local timelines. Decoded
// into a spare (a golden timeline), every document reads as a fresh decode
// does, and no list of the spare's is written.
//
// Mutation-checked: AppendText writing e.Time.Lo() in both time fields
// fails on the first golden seed.
func FuzzDecodeTimeline(f *testing.F) {
	var spareDoc string
	for _, l := range goldenLocals(f) {
		doc, err := timeline.ReferenceEncodeString(l) // not the encoder under test
		if err != nil {
			f.Fatal(err)
		}
		if spareDoc == "" {
			spareDoc = doc
		}
		f.Add(doc)
		f.Add(strings.ReplaceAll(doc, "\n", "\r\n"))
		f.Add(strings.Replace(doc, " ", "\u00a0", 3))
	}
	f.Add("m\nfault_list\n0 f (m:s) always crash(h1) 5s\n1 g (~(m:s) & (m:t)) once\nend_fault_list\nlocal_timeline\n1 1 0 9\n1 0 4294967295 4294967295\nend_local_timeline\n")
	f.Add("# c\nm\nhost_list\n0\th\v\nend_host_list\nlocal_timeline\n2 0 0 1\n3 \"a b\u00e9\"\f0 7\nend_local_timeline")
	f.Fuzz(func(t *testing.T, doc string) {
		l, err := timeline.DecodeString(doc)
		ref, refErr := timeline.ReferenceDecodeString(doc)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("decode error %v, the reference decoder's %v", err, refErr)
		}
		intoSpare(t, doc, spareDoc, l, err)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(l, ref) {
			t.Fatalf("decoded %+v, the reference decoder %+v", l, ref)
		}
		want, err := timeline.ReferenceEncodeString(l)
		if err != nil {
			t.Fatalf("a decoded timeline does not encode: %v", err)
		}
		appended, err := l.AppendText([]byte("prefix"))
		if enc := string(appended); err != nil || enc != "prefix"+want {
			t.Fatalf("AppendText wrote\n%q, %v\nthe reference encoder\n%q", enc[min(len(enc), len("prefix")):], err, want)
		}
		enc, err := timeline.EncodeString(l)
		if err != nil || enc != want {
			t.Fatalf("EncodeString = %q, %v; want the reference encoder's %q", enc, err, want)
		}
		back, err := timeline.DecodeString(enc)
		if err != nil {
			t.Fatalf("decoding its own encoding: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("Decode∘Encode changed the timeline:\n got: %+v\nwant: %+v", back, l)
		}
	})
}

// intoSpare decodes doc into a spare decoded from spareDoc and fails unless
// it reads as want, a fresh decode of doc (wantErr its error), and the
// spare's lists read as they did.
func intoSpare(t *testing.T, doc, spareDoc string, want *timeline.Local, wantErr error) {
	t.Helper()
	spare, err := timeline.DecodeString(spareDoc)
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]string{spare.Machines, spare.GlobalStates, spare.Events, spare.Hosts}
	saved := make([][]string, len(lists))
	for i := range lists {
		saved[i] = slices.Clone(lists[i])
	}
	got, err := timeline.DecodeStringInto(doc, spare)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decoding into a spare: error %v, a fresh decode's %v", err, wantErr)
	}
	for i := range lists {
		if !slices.Equal(lists[i], saved[i]) {
			t.Fatalf("decoding into a spare wrote its list %q (was %q)", lists[i], saved[i])
		}
	}
	if err != nil {
		return
	}
	if len(got.Entries) == 0 {
		got.Entries = want.Entries // an empty reused array, or none
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded into a spare %+v, a fresh decode %+v", got, want)
	}
}
