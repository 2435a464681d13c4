package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/faultexpr"
	"repro/internal/vclock"
)

// Encode writes the timeline in the thesis's §3.5.6 local timeline file
// format. Record lines use the numerical kind constants (STATE_CHANGE=0,
// FAULT_INJECTION=1; this reproduction adds HOST_CHANGE=2 and NOTE=3) and
// split 64-bit times into Hi/Lo 32-bit halves:
//
//	0 <EventIndex> <NewStateIndex> <Time.Hi> <Time.Lo>
//	1 <FaultIndex> <Time.Hi> <Time.Lo>
//	2 <HostIndex> <Time.Hi> <Time.Lo>
//	3 <quoted text> <Time.Hi> <Time.Lo>
func Encode(w io.Writer, l *Local) error {
	if err := l.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", l.Owner)
	bw.WriteString("state_machine_list\n")
	for i, m := range l.Machines {
		fmt.Fprintf(bw, "%d %s\n", i, m)
	}
	bw.WriteString("end_state_machine_list\n")
	bw.WriteString("global_state_list\n")
	for i, s := range l.GlobalStates {
		fmt.Fprintf(bw, "%d %s\n", i, s)
	}
	bw.WriteString("end_global_state_list\n")
	bw.WriteString("event_list\n")
	for i, e := range l.Events {
		fmt.Fprintf(bw, "%d %s\n", i, e)
	}
	bw.WriteString("end_event_list\n")
	bw.WriteString("fault_list\n")
	for i, f := range l.Faults {
		// The action call is part of the spec line grammar ParseSpecLine
		// accepts, so it must survive the encode/decode round trip —
		// cluster result streaming and checkpoint journals both ship
		// timelines through this format.
		if f.Action != nil {
			fmt.Fprintf(bw, "%d %s %s %s %s\n", i, f.Name, f.Expr, f.Mode, f.Action)
		} else {
			fmt.Fprintf(bw, "%d %s %s %s\n", i, f.Name, f.Expr, f.Mode)
		}
	}
	bw.WriteString("end_fault_list\n")
	bw.WriteString("host_list\n")
	for i, h := range l.Hosts {
		fmt.Fprintf(bw, "%d %s\n", i, h)
	}
	bw.WriteString("end_host_list\n")
	bw.WriteString("local_timeline\n")
	for _, e := range l.Entries {
		hi, lo := e.Time.Hi(), e.Time.Lo()
		switch e.Kind {
		case StateChange:
			fmt.Fprintf(bw, "%d %d %d %d %d\n", int(StateChange),
				indexOf(l.Events, e.Event), indexOf(l.GlobalStates, e.NewState), hi, lo)
		case FaultInjection:
			fmt.Fprintf(bw, "%d %d %d %d\n", int(FaultInjection), l.faultIndex(e.Fault), hi, lo)
		case HostChange:
			fmt.Fprintf(bw, "%d %d %d %d\n", int(HostChange), indexOf(l.Hosts, e.Host), hi, lo)
		case Note:
			fmt.Fprintf(bw, "%d %s %d %d\n", int(Note), strconv.Quote(e.Text), hi, lo)
		}
	}
	bw.WriteString("end_local_timeline\n")
	return bw.Flush()
}

// EncodeString is Encode into a string.
func EncodeString(l *Local) (string, error) {
	var b strings.Builder
	if err := Encode(&b, l); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Decode parses a local timeline file produced by Encode.
//
// Host attribution: entries are attributed to the most recent HOST_CHANGE
// record; a well-formed timeline begins with one (the recorder emits it on
// node start, carrying the "which host did this node run on" information
// that §3.6.3 requires for off-line clock synchronization).
func Decode(r io.Reader) (*Local, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	l := &Local{}
	section := "owner"
	currentHost := ""
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if section == "owner" {
			l.Owner = line
			section = "await"
			continue
		}
		switch line {
		case "state_machine_list", "global_state_list", "event_list", "fault_list", "host_list", "local_timeline":
			if section != "await" {
				return nil, fmt.Errorf("timeline: line %d: section %q opened inside %q", lineNo, line, section)
			}
			section = line
			continue
		case "end_state_machine_list", "end_global_state_list", "end_event_list",
			"end_fault_list", "end_host_list", "end_local_timeline":
			if "end_"+section != line {
				return nil, fmt.Errorf("timeline: line %d: %q closes %q", lineNo, line, section)
			}
			section = "await"
			continue
		}

		switch section {
		case "state_machine_list":
			name, err := parseIndexed(line, len(l.Machines))
			if err != nil {
				return nil, fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			l.Machines = append(l.Machines, name)
		case "global_state_list":
			name, err := parseIndexed(line, len(l.GlobalStates))
			if err != nil {
				return nil, fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			l.GlobalStates = append(l.GlobalStates, name)
		case "event_list":
			name, err := parseIndexed(line, len(l.Events))
			if err != nil {
				return nil, fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			l.Events = append(l.Events, name)
		case "host_list":
			name, err := parseIndexed(line, len(l.Hosts))
			if err != nil {
				return nil, fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			l.Hosts = append(l.Hosts, name)
		case "fault_list":
			fields := strings.Fields(line)
			if len(fields) < 4 {
				return nil, fmt.Errorf("timeline: line %d: short fault entry %q", lineNo, line)
			}
			if idx, err := strconv.Atoi(fields[0]); err != nil || idx != len(l.Faults) {
				return nil, fmt.Errorf("timeline: line %d: bad fault index in %q", lineNo, line)
			}
			spec, ok, err := faultexpr.ParseSpecLine(strings.Join(fields[1:], " "))
			if err != nil || !ok {
				return nil, fmt.Errorf("timeline: line %d: bad fault spec: %v", lineNo, err)
			}
			l.Faults = append(l.Faults, spec)
		case "local_timeline":
			e, err := decodeRecord(l, line, &currentHost)
			if err != nil {
				return nil, fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			l.Entries = append(l.Entries, e)
		default:
			return nil, fmt.Errorf("timeline: line %d: content %q outside any section", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if section != "await" {
		return nil, fmt.Errorf("timeline: unterminated section %q", section)
	}
	return l, nil
}

// DecodeString is Decode from a string.
func DecodeString(s string) (*Local, error) { return Decode(strings.NewReader(s)) }

// MarshalJSON renders the timeline as a JSON string holding its §3.5.6
// text, so a record that carries local timelines (the checkpoint journal's)
// shares one format with the .timeline artifacts and the cluster's result
// frames.
func (l *Local) MarshalJSON() ([]byte, error) {
	doc, err := EncodeString(l)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// UnmarshalJSON reverses MarshalJSON.
func (l *Local) UnmarshalJSON(b []byte) error {
	var doc string
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("timeline: local timeline: %w", err)
	}
	dec, err := DecodeString(doc)
	if err != nil {
		return err
	}
	*l = *dec
	return nil
}

func parseIndexed(line string, want int) (string, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return "", fmt.Errorf("want '<index> <name>', got %q", line)
	}
	idx, err := strconv.Atoi(fields[0])
	if err != nil || idx != want {
		return "", fmt.Errorf("bad index in %q (want %d)", line, want)
	}
	return fields[1], nil
}

func decodeRecord(l *Local, line string, currentHost *string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, fmt.Errorf("short record %q", line)
	}
	kind, err := strconv.Atoi(fields[0])
	if err != nil {
		return Entry{}, fmt.Errorf("bad kind in %q", line)
	}
	parseTime := func(hiS, loS string) (vclock.Ticks, error) {
		hi, err1 := strconv.ParseUint(hiS, 10, 32)
		lo, err2 := strconv.ParseUint(loS, 10, 32)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad time in %q", line)
		}
		return vclock.FromHiLo(uint32(hi), uint32(lo)), nil
	}
	switch Kind(kind) {
	case StateChange:
		if len(fields) != 5 {
			return Entry{}, fmt.Errorf("STATE_CHANGE wants 5 fields, got %q", line)
		}
		evIdx, err1 := strconv.Atoi(fields[1])
		stIdx, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || evIdx < 0 || evIdx >= len(l.Events) || stIdx < 0 || stIdx >= len(l.GlobalStates) {
			return Entry{}, fmt.Errorf("bad indices in %q", line)
		}
		t, err := parseTime(fields[3], fields[4])
		if err != nil {
			return Entry{}, err
		}
		return Entry{Kind: StateChange, Event: l.Events[evIdx], NewState: l.GlobalStates[stIdx], Host: *currentHost, Time: t}, nil
	case FaultInjection:
		fIdx, err1 := strconv.Atoi(fields[1])
		if err1 != nil || fIdx < 0 || fIdx >= len(l.Faults) {
			return Entry{}, fmt.Errorf("bad fault index in %q", line)
		}
		t, err := parseTime(fields[2], fields[3])
		if err != nil {
			return Entry{}, err
		}
		return Entry{Kind: FaultInjection, Fault: l.Faults[fIdx].Name, Host: *currentHost, Time: t}, nil
	case HostChange:
		hIdx, err1 := strconv.Atoi(fields[1])
		if err1 != nil || hIdx < 0 || hIdx >= len(l.Hosts) {
			return Entry{}, fmt.Errorf("bad host index in %q", line)
		}
		t, err := parseTime(fields[2], fields[3])
		if err != nil {
			return Entry{}, err
		}
		*currentHost = l.Hosts[hIdx]
		return Entry{Kind: HostChange, Host: *currentHost, Time: t}, nil
	case Note:
		// Text is a quoted string; rejoin in case it contained spaces.
		rest := strings.TrimSpace(line[len(fields[0]):])
		closing := strings.LastIndex(rest, `"`)
		if !strings.HasPrefix(rest, `"`) || closing <= 0 {
			return Entry{}, fmt.Errorf("NOTE wants quoted text in %q", line)
		}
		text, err := strconv.Unquote(rest[:closing+1])
		if err != nil {
			return Entry{}, fmt.Errorf("bad NOTE text in %q: %v", line, err)
		}
		timeFields := strings.Fields(rest[closing+1:])
		if len(timeFields) != 2 {
			return Entry{}, fmt.Errorf("NOTE wants Hi Lo after text in %q", line)
		}
		t, err := parseTime(timeFields[0], timeFields[1])
		if err != nil {
			return Entry{}, err
		}
		return Entry{Kind: Note, Text: text, Host: *currentHost, Time: t}, nil
	default:
		return Entry{}, fmt.Errorf("unknown record kind %d in %q", kind, line)
	}
}
