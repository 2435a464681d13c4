package timeline

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/faultexpr"
	"repro/internal/vclock"
)

func sampleMeta() Meta {
	return Meta{
		Owner:        "black",
		Machines:     []string{"black", "green", "yellow"},
		GlobalStates: []string{"BEGIN", "INIT", "ELECT", "LEAD", "FOLLOW", "CRASH", "EXIT"},
		Events:       []string{"START", "INIT_DONE", "LEADER", "FOLLOWER", "CRASH"},
		Faults: []faultexpr.Spec{
			{Name: "bfault1", Expr: faultexpr.MustParse("(black:LEAD)"), Mode: faultexpr.Always},
			{Name: "gfault2", Expr: faultexpr.MustParse("((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))"), Mode: faultexpr.Once},
		},
		Hosts: []string{"host1", "host2"},
	}
}

func sampleTimeline() *Local {
	return &Local{
		Meta: sampleMeta(),
		Entries: []Entry{
			{Kind: HostChange, Host: "host1", Time: 100},
			{Kind: StateChange, Event: "START", NewState: "INIT", Host: "host1", Time: 120},
			{Kind: StateChange, Event: "INIT_DONE", NewState: "ELECT", Host: "host1", Time: 340},
			{Kind: StateChange, Event: "LEADER", NewState: "LEAD", Host: "host1", Time: 900},
			{Kind: FaultInjection, Fault: "bfault1", Host: "host1", Time: 1000},
			{Kind: StateChange, Event: "CRASH", NewState: "CRASH", Host: "host1", Time: 1100},
			{Kind: HostChange, Host: "host2", Time: 1500},
			{Kind: Note, Text: "restarted after crash", Host: "host2", Time: 1501},
			{Kind: StateChange, Event: "FOLLOWER", NewState: "FOLLOW", Host: "host2", Time: 1600},
		},
	}
}

func TestLastStateAndInjections(t *testing.T) {
	l := sampleTimeline()
	if s, ok := l.LastState(); !ok || s != "FOLLOW" {
		t.Errorf("LastState = %q, %v", s, ok)
	}
	inj := slices.DeleteFunc(slices.Clone(l.Entries), func(e Entry) bool { return e.Kind != FaultInjection })
	if len(inj) != 1 || inj[0].Fault != "bfault1" || inj[0].Time != 1000 {
		t.Errorf("injections = %+v", inj)
	}
	empty := &Local{Meta: sampleMeta()}
	if _, ok := empty.LastState(); ok {
		t.Error("empty timeline has a last state")
	}
}

func TestValidate(t *testing.T) {
	l := sampleTimeline()
	if err := l.Validate(); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	bad := sampleTimeline()
	bad.Entries = append(bad.Entries, Entry{Kind: StateChange, Event: "NOSUCH", NewState: "INIT", Host: "host1"})
	if bad.Validate() == nil {
		t.Error("unknown event accepted")
	}
	bad2 := sampleTimeline()
	bad2.Entries = append(bad2.Entries, Entry{Kind: FaultInjection, Fault: "nosuch", Host: "host1"})
	if bad2.Validate() == nil {
		t.Error("unknown fault accepted")
	}
	bad3 := sampleTimeline()
	bad3.Entries = append(bad3.Entries, Entry{Kind: StateChange, Event: "START", NewState: "INIT", Host: "mars"})
	if bad3.Validate() == nil {
		t.Error("unknown host accepted")
	}
	bad4 := sampleTimeline() // no expression: the §3.5.6 fault line has nothing to write
	bad4.Faults[0].Expr = nil
	if text, err := EncodeString(bad4); err == nil {
		t.Errorf("fault without an expression encoded:\n%s", text)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := sampleTimeline()
	text, err := EncodeString(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeString(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if got.Owner != l.Owner {
		t.Errorf("owner = %q", got.Owner)
	}
	if len(got.Entries) != len(l.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(l.Entries))
	}
	for i := range l.Entries {
		w, g := l.Entries[i], got.Entries[i]
		if w.Kind != g.Kind || w.Event != g.Event || w.NewState != g.NewState ||
			w.Fault != g.Fault || w.Host != g.Host || w.Time != g.Time || w.Text != g.Text {
			t.Errorf("entry %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.Faults) != 2 || got.Faults[1].Mode != faultexpr.Once {
		t.Errorf("faults lost: %+v", got.Faults)
	}
}

// TestDecodeStringIntoReusesSpare: decoding into a spare reads as a fresh
// decode. The name lists that read as the spare's are the spare's own, a
// list that differs is a new one and the spare's reads as it did, and the
// entries reuse the spare's array; a warm decode of a timeline without
// faults or notes allocates nothing.
func TestDecodeStringIntoReusesSpare(t *testing.T) {
	first, err := EncodeString(sampleTimeline())
	if err != nil {
		t.Fatal(err)
	}
	next := sampleTimeline()
	next.Hosts = []string{"host1", "host3"}
	next.Entries = slices.DeleteFunc(next.Entries, func(e Entry) bool { return e.Host == "host2" })
	second, err := EncodeString(next)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := DecodeString(first)
	if err != nil {
		t.Fatal(err)
	}
	old := *spare
	oldHosts := slices.Clone(old.Hosts)
	got, err := DecodeStringInto(second, spare)
	if err != nil || got != spare {
		t.Fatalf("DecodeStringInto = %p, %v; want the spare %p", got, err, spare)
	}
	fresh, err := DecodeString(second)
	if err != nil || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("decoded into a spare:\n%+v\na fresh decode:\n%+v (%v)", got, fresh, err)
	}
	for name, l := range map[string][2][]string{"machines": {got.Machines, old.Machines}, "states": {got.GlobalStates, old.GlobalStates}, "events": {got.Events, old.Events}} {
		if unsafe.SliceData(l[0]) != unsafe.SliceData(l[1]) {
			t.Errorf("the %s list reads as the spare's but is not the spare's", name)
		}
	}
	if unsafe.SliceData(got.Hosts) == unsafe.SliceData(old.Hosts) || !slices.Equal(old.Hosts, oldHosts) {
		t.Errorf("a host list that differs was written into the spare's: %q, the spare's now %q", got.Hosts, old.Hosts)
	}
	if unsafe.SliceData(got.Entries) != unsafe.SliceData(old.Entries) {
		t.Error("the entries do not reuse the spare's array")
	}

	plain := sampleTimeline()
	plain.Faults = nil
	plain.Entries = slices.DeleteFunc(plain.Entries, func(e Entry) bool { return e.Kind == FaultInjection || e.Kind == Note })
	doc, err := EncodeString(plain)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DecodeString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if warm, err = DecodeStringInto(doc, warm); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm decode into a spare allocates %v objects, want 0", n)
	}
}

func TestEncodeUsesHiLoSplit(t *testing.T) {
	l := &Local{Meta: Meta{
		Owner:        "sm",
		GlobalStates: []string{"S"},
		Events:       []string{"e"},
		Hosts:        []string{"h"},
	}}
	big := vclock.FromHiLo(7, 42) // 7*2^32 + 42
	l.Entries = []Entry{
		{Kind: HostChange, Host: "h", Time: 0},
		{Kind: StateChange, Event: "e", NewState: "S", Host: "h", Time: big},
	}
	text, err := EncodeString(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "0 0 0 7 42") {
		t.Errorf("Hi/Lo split missing from:\n%s", text)
	}
	got, err := DecodeString(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[1].Time != big {
		t.Errorf("time round trip = %d, want %d", got.Entries[1].Time, big)
	}
}

func TestDecodeAttributesHosts(t *testing.T) {
	l := sampleTimeline()
	text, _ := EncodeString(l)
	got, err := DecodeString(text)
	if err != nil {
		t.Fatal(err)
	}
	// The FOLLOW state change came after the restart onto host2.
	last := got.Entries[len(got.Entries)-1]
	if last.NewState != "FOLLOW" || last.Host != "host2" {
		t.Errorf("host attribution lost: %+v", last)
	}
	if got.Entries[1].Host != "host1" {
		t.Errorf("first host attribution lost: %+v", got.Entries[1])
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct{ name, doc string }{
		{"unterminated", "sm\nlocal_timeline\n"},
		{"bad kind", "sm\nlocal_timeline\n9 0 0 0\nend_local_timeline\n"},
		{"bad state index", "sm\nevent_list\n0 e\nend_event_list\nglobal_state_list\n0 S\nend_global_state_list\nlocal_timeline\n0 0 5 0 0\nend_local_timeline\n"},
		{"wrong close", "sm\nevent_list\nend_global_state_list\n"},
		{"bad fault index order", "sm\nfault_list\n3 f (a:b) once\nend_fault_list\n"},
		{"short record", "sm\nlocal_timeline\n0 1\nend_local_timeline\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeString(tt.doc); err == nil {
				t.Errorf("Decode accepted %q", tt.doc)
			}
		})
	}
}

func TestNoteWithSpacesRoundTrip(t *testing.T) {
	l := &Local{Meta: Meta{Owner: "sm", Hosts: []string{"h"}}}
	l.Entries = []Entry{
		{Kind: HostChange, Host: "h", Time: 1},
		{Kind: Note, Text: `a "quoted" message with spaces`, Host: "h", Time: 2},
	}
	text, err := EncodeString(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeString(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[1].Text != l.Entries[1].Text {
		t.Errorf("note text = %q", got.Entries[1].Text)
	}
}

func TestTimeRoundTripQuick(t *testing.T) {
	f := func(raw uint64) bool {
		tk := vclock.Ticks(raw & (1<<63 - 1)) // non-negative
		l := &Local{Meta: Meta{Owner: "sm", GlobalStates: []string{"S"}, Events: []string{"e"}, Hosts: []string{"h"}}}
		l.Entries = []Entry{
			{Kind: HostChange, Host: "h", Time: 0},
			{Kind: StateChange, Event: "e", NewState: "S", Host: "h", Time: tk},
		}
		text, err := EncodeString(l)
		if err != nil {
			return false
		}
		got, err := DecodeString(text)
		if err != nil {
			return false
		}
		return got.Entries[1].Time == tk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	src := vclock.NewManualSource(0)
	clock := vclock.NewClock(src, vclock.ClockConfig{})
	l := &Local{Meta: sampleMeta()}
	rec := new(Recorder)
	rec.Start(l, "host1", clock)

	src.Set(100)
	rec.RecordStateChange("START", "INIT", rec.Now())
	src.Set(200)
	rec.RecordInjection("bfault1", rec.Now())
	rec.RecordNote("hello")

	entries := rec.Snapshot().Entries
	if len(entries) != 4 { // HostChange + 3
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if entries[0].Kind != HostChange || entries[0].Host != "host1" {
		t.Errorf("first entry = %+v, want HostChange", entries[0])
	}
	if entries[1].Time != 100 || entries[2].Time != 200 {
		t.Errorf("timestamps = %d, %d", entries[1].Time, entries[2].Time)
	}
	if err := rec.Snapshot().Validate(); err != nil {
		t.Errorf("recorded timeline invalid: %v", err)
	}
}

func TestRecorderInternsNewHost(t *testing.T) {
	src := vclock.NewManualSource(0)
	l := &Local{Meta: Meta{Owner: "sm"}}
	new(Recorder).Start(l, "fresh-host", vclock.NewClock(src, vclock.ClockConfig{}))
	if len(l.Hosts) != 1 || l.Hosts[0] != "fresh-host" {
		t.Errorf("hosts = %v", l.Hosts)
	}
	// Restart on the same host must not duplicate it.
	new(Recorder).Start(l, "fresh-host", vclock.NewClock(src, vclock.ClockConfig{}))
	if len(l.Hosts) != 1 {
		t.Errorf("host duplicated: %v", l.Hosts)
	}
}

func TestRecorderSnapshotIsolated(t *testing.T) {
	src := vclock.NewManualSource(0)
	l := &Local{Meta: sampleMeta()}
	rec := new(Recorder)
	rec.Start(l, "host1", vclock.NewClock(src, vclock.ClockConfig{}))
	snap := rec.Snapshot()
	before := len(snap.Entries)
	rec.RecordNote("after snapshot")
	if len(snap.Entries) != before {
		t.Error("snapshot shares entry slice with live recorder")
	}
}

// TestRecorderDetachHandsTimelineOver: a detached recorder drops records,
// so the timeline it released stays as it was, and the next Start records
// into the next timeline only.
func TestRecorderDetachHandsTimelineOver(t *testing.T) {
	src := vclock.NewManualSource(0)
	rec := new(Recorder)
	first := &Local{Meta: sampleMeta()}
	rec.Start(first, "host1", vclock.NewClock(src, vclock.ClockConfig{}))
	rec.RecordNote("during")
	rec.Detach()
	rec.RecordNote("straggler")
	rec.RecordStateChange("START", "INIT", 1)
	if n := len(first.Entries); n != 2 {
		t.Fatalf("released timeline has %d entries, want 2 (HOST_CHANGE + note)", n)
	}
	if rec.Snapshot() != nil {
		t.Error("a detached recorder still exposes a timeline")
	}
	second := &Local{Meta: sampleMeta()}
	rec.Start(second, "host2", vclock.NewClock(src, vclock.ClockConfig{}))
	rec.RecordNote("next")
	if len(first.Entries) != 2 || len(second.Entries) != 2 || second.Entries[1].Host != "host2" {
		t.Errorf("after restart: first %d entries, second %+v", len(first.Entries), second.Entries)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	l := &Local{Meta: sampleMeta()}
	rec := new(Recorder)
	rec.Start(l, "host1", vclock.NewClock(clock.Real{}, vclock.ClockConfig{}))
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 500; j++ {
				rec.RecordStateChange("START", "INIT", rec.Now())
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if n := len(rec.Snapshot().Entries); n != 1+2000 {
		t.Errorf("entries = %d, want 2001", n)
	}
}

// TestRecorderNowAllocs: a probe timestamp over simulated time takes no
// lock and allocates nothing.
func TestRecorderNowAllocs(t *testing.T) {
	rec := new(Recorder)
	rec.Start(&Local{Meta: sampleMeta()}, "host1", vclock.NewClock(clock.NewVirtual(), vclock.ClockConfig{}))
	if n := testing.AllocsPerRun(1000, func() { rec.Now() }); n != 0 {
		t.Fatalf("Recorder.Now allocates %v objects, want 0", n)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if s.Get("black") != nil {
		t.Error("empty store returned a timeline")
	}
	s.Put(sampleTimeline())
	green := &Local{Meta: Meta{Owner: "green"}}
	s.Put(green)
	if s.Get("black") == nil || s.Get("green") != green {
		t.Error("store lookup failed")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "black" || names[1] != "green" {
		t.Errorf("Names = %v", names)
	}
	if all := s.AppendAll(nil); len(all) != 2 || all[0].Owner != "black" {
		t.Errorf("AppendAll = %v", all)
	}
	s.Reset()
	if len(s.Names()) != 0 {
		t.Error("Reset did not clear store")
	}
}

func TestKindString(t *testing.T) {
	if StateChange.String() != "STATE_CHANGE" || FaultInjection.String() != "FAULT_INJECTION" {
		t.Error("kind names")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind name")
	}
}
