package spec

import (
	"strings"
	"testing"
)

// blackSpec is the verbatim state machine specification for machine "black"
// from thesis §5.3.
const blackSpec = `
global_state_list
  BEGIN
  INIT
  RESTART_SM
  ELECT
  FOLLOW
  LEAD
  CRASH
  EXIT
end_global_state_list
event_list
  START
  INIT_DONE
  RESTART
  RESTART_DONE
  LEADER
  FOLLOWER
  LEADER_CRASH
  CRASH
  ERROR
end_event_list

state INIT notify green yellow
  INIT_DONE ELECT
  ERROR EXIT

state RESTART_SM notify green yellow
  RESTART_DONE FOLLOW
  ERROR EXIT

state ELECT notify
  FOLLOWER FOLLOW
  LEADER LEAD
  CRASH CRASH
  ERROR EXIT

state LEAD notify
  CRASH CRASH
  ERROR EXIT

state FOLLOW notify
  LEADER_CRASH ELECT
  CRASH CRASH
  ERROR EXIT

state CRASH notify green yellow
state EXIT notify
`

func TestParseBlackSpec(t *testing.T) {
	m, err := ParseStateMachine(blackSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GlobalStates) != 8 {
		t.Errorf("global states = %d, want 8", len(m.GlobalStates))
	}
	if len(m.Events) != 9 {
		t.Errorf("events = %d, want 9", len(m.Events))
	}
	if len(m.StateOrder) != 7 {
		t.Errorf("defined states = %d, want 7", len(m.StateOrder))
	}
	init := m.States["INIT"]
	if init == nil || len(init.Notify) != 2 || init.Notify[0] != "green" || init.Notify[1] != "yellow" {
		t.Errorf("INIT notify = %+v", init)
	}
	if next, ok := m.Next("ELECT", "LEADER"); !ok || next != "LEAD" {
		t.Errorf("Next(ELECT, LEADER) = %q, %v", next, ok)
	}
	if next, ok := m.Next("FOLLOW", "LEADER_CRASH"); !ok || next != "ELECT" {
		t.Errorf("Next(FOLLOW, LEADER_CRASH) = %q, %v", next, ok)
	}
	if _, ok := m.Next("LEAD", "LEADER_CRASH"); ok {
		t.Error("LEAD should have no transition on LEADER_CRASH")
	}
	if nl := m.NotifyList("CRASH"); len(nl) != 2 {
		t.Errorf("CRASH notify = %v", nl)
	}
	if nl := m.NotifyList("ELECT"); len(nl) != 0 {
		t.Errorf("ELECT notify = %v, want empty", nl)
	}
}

func TestParseCommaNotify(t *testing.T) {
	doc := `
global_state_list
  A
  B
end_global_state_list
event_list
  go
end_event_list
state A notify sm1, sm2, sm3
  go B
`
	m, err := ParseStateMachine(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := m.States["A"].Notify
	if len(got) != 3 || got[0] != "sm1" || got[2] != "sm3" {
		t.Errorf("notify = %v", got)
	}
}

func TestDefaultTransition(t *testing.T) {
	doc := `
global_state_list
  A
  B
  SINK
end_global_state_list
event_list
  go
end_event_list
state A
  go B
  default SINK
`
	m, err := ParseStateMachine(doc)
	if err != nil {
		t.Fatal(err)
	}
	if next, ok := m.Next("A", "go"); !ok || next != "B" {
		t.Errorf("explicit transition broken: %q %v", next, ok)
	}
	if next, ok := m.Next("A", "whatever"); !ok || next != "SINK" {
		t.Errorf("default transition = %q %v, want SINK", next, ok)
	}
}

func TestNextOnUndefinedState(t *testing.T) {
	m, err := ParseStateMachine(blackSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Next("NOSUCH", "CRASH"); ok {
		t.Error("transition out of undefined state should fail")
	}
	// BEGIN is declared but has no definition block: no transitions.
	if _, ok := m.Next("BEGIN", "START"); ok {
		t.Error("BEGIN has no transitions in this spec")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	m, err := ParseStateMachine(blackSpec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseStateMachine(m.Format())
	if err != nil {
		t.Fatalf("reparse of Format output: %v\n%s", err, m.Format())
	}
	if len(again.GlobalStates) != len(m.GlobalStates) || len(again.Events) != len(m.Events) {
		t.Fatal("round trip lost list entries")
	}
	for _, name := range m.StateOrder {
		a, b := m.States[name], again.States[name]
		if b == nil {
			t.Fatalf("round trip lost state %q", name)
		}
		if len(a.Notify) != len(b.Notify) || len(a.Transitions) != len(b.Transitions) {
			t.Fatalf("state %q changed: %+v vs %+v", name, a, b)
		}
		for ev, next := range a.Transitions {
			if b.Transitions[ev] != next {
				t.Fatalf("state %q transition %q changed", name, ev)
			}
		}
	}
}

func TestParseStateMachineErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
		want string
	}{
		{"unterminated states", "global_state_list\nA\n", "unterminated"},
		{"content before lists", "state A\n", "before global_state_list"},
		{"two tokens in state list", "global_state_list\nA B\nend_global_state_list\nevent_list\ne\nend_event_list\n", "one state per line"},
		{"transition outside state", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\ne A\n", "outside a state block"},
		{"undeclared target", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\nstate A\ne B\n", "undeclared state"},
		{"undeclared event", "global_state_list\nA\nB\nend_global_state_list\nevent_list\ne\nend_event_list\nstate A\nzap B\n", "undeclared event"},
		{"duplicate state def", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\nstate A\nstate A\n", "duplicate state definition"},
		{"duplicate transition", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\nstate A\ne A\ne A\n", "duplicate transition"},
		{"duplicate global state", "global_state_list\nA\nA\nend_global_state_list\nevent_list\ne\nend_event_list\n", "duplicate global state"},
		{"state not declared", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\nstate Z\n", "not in global_state_list"},
		{"bad notify keyword", "global_state_list\nA\nend_global_state_list\nevent_list\ne\nend_event_list\nstate A inform x\n", "expected 'notify'"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseStateMachine(tt.doc)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestReservedEventTransitionsAllowed(t *testing.T) {
	// CRASH and RESTART events may be used without declaring them.
	doc := `
global_state_list
  A
  CRASH
end_global_state_list
event_list
  e
end_event_list
state A
  CRASH CRASH
`
	if _, err := ParseStateMachine(doc); err != nil {
		t.Fatalf("reserved event transition rejected: %v", err)
	}
}

func TestParseNodeFile(t *testing.T) {
	entries, err := ParseNodeFile("# nodes\nblack host1\ngreen host2\nyellow\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	if !entries[0].AutoStart() || entries[0].Host != "host1" {
		t.Errorf("entries[0] = %+v", entries[0])
	}
	if entries[2].AutoStart() {
		t.Error("yellow should not auto-start")
	}
}

func TestParseNodeFileErrors(t *testing.T) {
	if _, err := ParseNodeFile(""); err == nil {
		t.Error("empty node file should fail")
	}
	if _, err := ParseNodeFile("a b c\n"); err == nil {
		t.Error("three-field line should fail")
	}
	if _, err := ParseNodeFile("a h1\na h2\n"); err == nil {
		t.Error("duplicate nickname should fail")
	}
}

func TestParseMachinesFile(t *testing.T) {
	hosts, err := ParseMachinesFile("host1\nhost2\nhost3\n")
	if err != nil || len(hosts) != 3 {
		t.Fatalf("hosts = %v, err = %v", hosts, err)
	}
	if _, err := ParseMachinesFile("\n\n"); err == nil {
		t.Error("empty machines file accepted")
	}
	if _, err := ParseMachinesFile("h1\nh1\n"); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := ParseMachinesFile("h1 h2\n"); err == nil {
		t.Error("two hosts on one line accepted")
	}
}

func TestMachinesNotified(t *testing.T) {
	m, err := ParseStateMachine(blackSpec)
	if err != nil {
		t.Fatal(err)
	}
	got := m.MachinesNotified()
	if len(got) != 2 || got[0] != "green" || got[1] != "yellow" {
		t.Errorf("MachinesNotified = %v", got)
	}
}
