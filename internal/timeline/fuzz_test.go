package timeline_test

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// panic, and whatever it accepts must survive its own encoding:
// Decode∘Encode is the identity on local timelines.
func FuzzDecodeTimeline(f *testing.F) {
	for _, l := range goldenLocals(f) {
		doc, err := timeline.EncodeString(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		l, err := timeline.DecodeString(doc)
		if err != nil {
			return
		}
		enc, err := timeline.EncodeString(l)
		if err != nil {
			t.Fatalf("a decoded timeline does not encode: %v", err)
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
