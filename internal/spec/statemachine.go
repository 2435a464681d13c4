// Package spec implements the textual specification file formats the Loki
// thesis defines: state machine specifications (§3.5.3), fault
// specifications (§3.5.5, via internal/faultexpr), node files (§3.5.1) and
// machines files (§5.6).
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Reserved state names (§3.5.7). BEGIN is every state machine's implicit
// initial state; CRASH/EXIT/RESTART are entered by the runtime itself.
const (
	StateBegin   = "BEGIN"
	StateExit    = "EXIT"
	StateCrash   = "CRASH"
	StateRestart = "RESTART"
)

// Reserved event names (§3.5.7). EventDefault matches any event that has no
// explicit transition from the current state.
const (
	EventCrash   = "CRASH"
	EventRestart = "RESTART"
	EventDefault = "default"
)

// StateDef is one state's definition: who to notify on entry, and the
// transition function out of the state.
type StateDef struct {
	Name string
	// Notify lists the state machines to be told when this machine enters
	// the state (the "notify" clause). Order is preserved from the spec.
	Notify []string
	// Transitions maps a local event to the next state.
	Transitions map[string]string
	// EventOrder preserves the order transitions were declared, for
	// faithful re-rendering.
	EventOrder []string
}

// StateMachine is a parsed state machine specification (§3.5.3). The
// machine's own nickname is not part of the file format — it comes from the
// study file — so it is carried separately.
type StateMachine struct {
	// GlobalStates is the global_state_list: the states of *all* machines
	// in the system, in declaration order.
	GlobalStates []string
	// Events is the event_list: this machine's local events.
	Events []string
	// States holds the per-state definitions.
	States map[string]*StateDef
	// StateOrder preserves state definition order.
	StateOrder []string
}

// HasGlobalState reports whether name appears in the global state list.
func (m *StateMachine) HasGlobalState(name string) bool {
	for _, s := range m.GlobalStates {
		if s == name {
			return true
		}
	}
	return false
}

// HasEvent reports whether name appears in the event list.
func (m *StateMachine) HasEvent(name string) bool {
	for _, e := range m.Events {
		if e == name {
			return true
		}
	}
	return false
}

// Next computes the transition out of state on event. It returns the next
// state, falling back to the state's "default" transition if the event has
// no explicit entry; ok is false if neither exists (the event is ignored in
// this state, which the runtime logs as a warning).
func (m *StateMachine) Next(state, event string) (next string, ok bool) {
	def, exists := m.States[state]
	if !exists {
		return "", false
	}
	if next, ok = def.Transitions[event]; ok {
		return next, true
	}
	next, ok = def.Transitions[EventDefault]
	return next, ok
}

// NotifyList returns the machines to notify when entering state. A state
// with no definition (e.g. EXIT when left implicit) notifies nobody.
func (m *StateMachine) NotifyList(state string) []string {
	if def, ok := m.States[state]; ok {
		return def.Notify
	}
	return nil
}

// Validate checks internal consistency: every transition target must be a
// declared global state, every transition event a declared event (or
// "default"), and every defined state a declared global state.
func (m *StateMachine) Validate() error {
	if len(m.GlobalStates) == 0 {
		return fmt.Errorf("spec: empty global_state_list")
	}
	seen := make(map[string]bool, len(m.GlobalStates))
	for _, s := range m.GlobalStates {
		if seen[s] {
			return fmt.Errorf("spec: duplicate global state %q", s)
		}
		seen[s] = true
	}
	seenEv := make(map[string]bool, len(m.Events))
	for _, e := range m.Events {
		if seenEv[e] {
			return fmt.Errorf("spec: duplicate event %q", e)
		}
		seenEv[e] = true
	}
	for _, name := range m.StateOrder {
		def := m.States[name]
		if !m.HasGlobalState(name) {
			return fmt.Errorf("spec: state %q defined but not in global_state_list", name)
		}
		for _, ev := range def.EventOrder {
			next := def.Transitions[ev]
			if ev != EventDefault && !m.HasEvent(ev) && !isReservedEvent(ev) {
				return fmt.Errorf("spec: state %q: transition on undeclared event %q", name, ev)
			}
			if !m.HasGlobalState(next) {
				return fmt.Errorf("spec: state %q: transition on %q to undeclared state %q", name, ev, next)
			}
		}
	}
	return nil
}

func isReservedEvent(ev string) bool {
	return ev == EventCrash || ev == EventRestart || ev == EventDefault
}

// MachinesNotified returns the sorted union of all machines named in any
// notify clause.
func (m *StateMachine) MachinesNotified() []string {
	set := make(map[string]bool)
	for _, def := range m.States {
		for _, n := range def.Notify {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseStateMachine parses the §3.5.3 format:
//
//	global_state_list
//	<states, one per line>
//	end_global_state_list
//	event_list
//	<events, one per line>
//	end_event_list
//
//	state <name> [notify <nick1> ... <nickN>]
//	<event> <next-state>
//	...
//
// Blank lines and '#' comments are permitted anywhere. Notify lists accept
// both space- and comma-separated nicknames (the thesis uses both styles).
func ParseStateMachine(doc string) (*StateMachine, error) {
	m := &StateMachine{States: make(map[string]*StateDef)}
	var cur *StateDef
	section := "" // "", "states", "events", "body"

	for i, raw := range strings.Split(doc, "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "global_state_list":
			if section != "" {
				return nil, fmt.Errorf("spec: line %d: unexpected global_state_list", lineNo)
			}
			section = "states"
			continue
		case "end_global_state_list":
			if section != "states" {
				return nil, fmt.Errorf("spec: line %d: end_global_state_list outside list", lineNo)
			}
			section = ""
			continue
		case "event_list":
			if section != "" {
				return nil, fmt.Errorf("spec: line %d: unexpected event_list", lineNo)
			}
			section = "events"
			continue
		case "end_event_list":
			if section != "events" {
				return nil, fmt.Errorf("spec: line %d: end_event_list outside list", lineNo)
			}
			section = "body"
			continue
		}

		switch section {
		case "states":
			if len(fields) != 1 {
				return nil, fmt.Errorf("spec: line %d: one state per line, got %q", lineNo, line)
			}
			m.GlobalStates = append(m.GlobalStates, fields[0])
		case "events":
			if len(fields) != 1 {
				return nil, fmt.Errorf("spec: line %d: one event per line, got %q", lineNo, line)
			}
			m.Events = append(m.Events, fields[0])
		case "body":
			if fields[0] == "state" {
				if len(fields) < 2 {
					return nil, fmt.Errorf("spec: line %d: state without a name", lineNo)
				}
				name := fields[1]
				if _, dup := m.States[name]; dup {
					return nil, fmt.Errorf("spec: line %d: duplicate state definition %q", lineNo, name)
				}
				def := &StateDef{Name: name, Transitions: make(map[string]string)}
				if len(fields) > 2 {
					if fields[2] != "notify" {
						return nil, fmt.Errorf("spec: line %d: expected 'notify', got %q", lineNo, fields[2])
					}
					for _, n := range fields[3:] {
						n = strings.TrimSuffix(strings.TrimSpace(n), ",")
						if n != "" {
							def.Notify = append(def.Notify, n)
						}
					}
				}
				m.States[name] = def
				m.StateOrder = append(m.StateOrder, name)
				cur = def
				continue
			}
			if cur == nil {
				return nil, fmt.Errorf("spec: line %d: transition %q outside a state block", lineNo, line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("spec: line %d: want '<event> <next-state>', got %q", lineNo, line)
			}
			ev, next := fields[0], fields[1]
			if _, dup := cur.Transitions[ev]; dup {
				return nil, fmt.Errorf("spec: line %d: duplicate transition on %q in state %q", lineNo, ev, cur.Name)
			}
			cur.Transitions[ev] = next
			cur.EventOrder = append(cur.EventOrder, ev)
		default:
			return nil, fmt.Errorf("spec: line %d: unexpected content %q before global_state_list", lineNo, line)
		}
	}
	if section == "states" || section == "events" {
		return nil, fmt.Errorf("spec: unterminated %s list", section)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Format renders the machine back into the §3.5.3 file format.
func (m *StateMachine) Format() string {
	var b strings.Builder
	b.WriteString("global_state_list\n")
	for _, s := range m.GlobalStates {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	b.WriteString("end_global_state_list\n")
	b.WriteString("event_list\n")
	for _, e := range m.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	b.WriteString("end_event_list\n")
	for _, name := range m.StateOrder {
		def := m.States[name]
		b.WriteString("\nstate " + name)
		if len(def.Notify) > 0 {
			b.WriteString(" notify " + strings.Join(def.Notify, " "))
		}
		b.WriteString("\n")
		for _, ev := range def.EventOrder {
			fmt.Fprintf(&b, "  %s %s\n", ev, def.Transitions[ev])
		}
	}
	return b.String()
}
