package timeline

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

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
//
// AppendText is the encoder; Encode appends into w's AvailableBuffer when w
// has one (a warm obs.ArtifactWriter does), so the text is built in memory
// w already owns, and writes it with one Write.
func Encode(w io.Writer, l *Local) error {
	b, err := l.AppendText(availableBuffer(w))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeString is Encode into a string.
func EncodeString(l *Local) (string, error) {
	b, err := l.AppendText(nil)
	return string(b), err
}

// AppendText validates l, then appends its §3.5.6 text to dst and returns
// the extended slice. On a validation error it returns dst unchanged.
func (l *Local) AppendText(dst []byte) ([]byte, error) {
	if err := l.Validate(); err != nil {
		return dst, err
	}
	dst = append(dst, l.Owner...)
	dst = append(dst, '\n')
	dst = appendList(dst, "state_machine_list", l.Machines)
	dst = appendList(dst, "global_state_list", l.GlobalStates)
	dst = appendList(dst, "event_list", l.Events)
	dst = append(dst, "fault_list\n"...)
	for i, f := range l.Faults {
		// The action call is part of the spec line grammar ParseSpecLine
		// accepts, so it must survive the encode/decode round trip —
		// cluster result streaming and checkpoint journals both ship
		// timelines through this format.
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = append(dst, f.Name...)
		dst = append(dst, ' ')
		dst = append(dst, f.Expr.String()...)
		dst = append(dst, ' ')
		dst = append(dst, f.Mode.String()...)
		if f.Action != nil {
			dst = append(dst, ' ')
			dst = append(dst, f.Action.String()...)
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, "end_fault_list\n"...)
	dst = appendList(dst, "host_list", l.Hosts)
	dst = append(dst, "local_timeline\n"...)
	for _, e := range l.Entries {
		dst = strconv.AppendInt(dst, int64(e.Kind), 10)
		dst = append(dst, ' ')
		switch e.Kind {
		case StateChange:
			dst = strconv.AppendInt(dst, int64(indexOf(l.Events, e.Event)), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(indexOf(l.GlobalStates, e.NewState)), 10)
		case FaultInjection:
			dst = strconv.AppendInt(dst, int64(l.faultIndex(e.Fault)), 10)
		case HostChange:
			dst = strconv.AppendInt(dst, int64(indexOf(l.Hosts, e.Host)), 10)
		case Note:
			dst = strconv.AppendQuote(dst, e.Text)
		}
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(e.Time.Hi()), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(e.Time.Lo()), 10)
		dst = append(dst, '\n')
	}
	return append(dst, "end_local_timeline\n"...), nil
}

// appendList appends one name table: its header, "<index> <name>" lines,
// and its end_ line.
func appendList(dst []byte, section string, names []string) []byte {
	dst = append(dst, section...)
	dst = append(dst, '\n')
	for i, name := range names {
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = append(dst, name...)
		dst = append(dst, '\n')
	}
	dst = append(dst, "end_"...)
	dst = append(dst, section...)
	return append(dst, '\n')
}

// availableBuffer returns w's unused buffer capacity, empty, when w offers
// it (bufio.Writer, bytes.Buffer), and nil otherwise. (internal/analysis
// and internal/clocksync keep the same helper.)
func availableBuffer(w io.Writer) []byte {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return ab.AvailableBuffer()
	}
	return nil
}

// Decode parses a local timeline file produced by Encode.
//
// Host attribution: entries are attributed to the most recent HOST_CHANGE
// record; a well-formed timeline begins with one (the recorder emits it on
// node start, carrying the "which host did this node run on" information
// that §3.6.3 requires for off-line clock synchronization).
func Decode(r io.Reader) (*Local, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeString(string(b))
}

// DecodeString is Decode from a string.
func DecodeString(s string) (*Local, error) { return DecodeStringInto(s, nil) }

// DecodeStringInto is DecodeString into spare, a timeline nothing else
// references any more (nil decodes into a fresh one). The entries reuse
// spare's entry array, and the owner and each name list that read as
// spare's are spare's own, so a timeline that repeats its predecessor's
// header reads its names from it, not from s; a list that differs is
// built anew, since spare's may be shared and is never written. The fault
// list is parsed anew. On error spare is spent, and nil is returned.
func DecodeStringInto(s string, spare *Local) (*Local, error) {
	l := spare
	if l == nil {
		l = new(Local)
	}
	if err := l.decode(s, spare); err != nil {
		return nil, err
	}
	return l, nil
}

// Owner returns the owner a document names, as Decode reads it: its first
// line that is neither blank nor a comment, trimmed ("" if there is none).
func Owner(doc string) string {
	for rest := doc; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			return line
		}
	}
	return ""
}

// decode parses doc into l, reusing the storage of spare (nil, or l itself)
// as DecodeStringInto says: it walks doc's lines and splits each into a
// fixed array, so the decoded names are substrings of doc or spare's own.
// On error l's fields are left as they were.
func (l *Local) decode(doc string, spare *Local) error {
	var out, old Local
	if spare != nil {
		old, out.Entries = *spare, spare.Entries[:0]
	}
	section := "owner"
	currentHost := ""
	lineNo := 0
	for rest := doc; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if section == "owner" {
			if out.Owner = line; line == old.Owner {
				out.Owner = old.Owner
			}
			section = "await"
			continue
		}
		switch line {
		case "state_machine_list", "global_state_list", "event_list", "fault_list", "host_list", "local_timeline":
			if section != "await" {
				return fmt.Errorf("timeline: line %d: section %q opened inside %q", lineNo, line, section)
			}
			section = line
			continue
		case "end_state_machine_list", "end_global_state_list", "end_event_list",
			"end_fault_list", "end_host_list", "end_local_timeline":
			if "end_"+section != line {
				return fmt.Errorf("timeline: line %d: %q closes %q", lineNo, line, section)
			}
			section = "await"
			continue
		}

		switch section {
		case "state_machine_list":
			name, err := parseIndexed(line, len(out.Machines))
			if err != nil {
				return fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			out.Machines = addName(out.Machines, old.Machines, name)
		case "global_state_list":
			name, err := parseIndexed(line, len(out.GlobalStates))
			if err != nil {
				return fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			out.GlobalStates = addName(out.GlobalStates, old.GlobalStates, name)
		case "event_list":
			name, err := parseIndexed(line, len(out.Events))
			if err != nil {
				return fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			out.Events = addName(out.Events, old.Events, name)
		case "host_list":
			name, err := parseIndexed(line, len(out.Hosts))
			if err != nil {
				return fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			out.Hosts = addName(out.Hosts, old.Hosts, name)
		case "fault_list":
			fields := strings.Fields(line)
			if len(fields) < 4 {
				return fmt.Errorf("timeline: line %d: short fault entry %q", lineNo, line)
			}
			if idx, err := strconv.Atoi(fields[0]); err != nil || idx != len(out.Faults) {
				return fmt.Errorf("timeline: line %d: bad fault index in %q", lineNo, line)
			}
			spec, ok, err := faultexpr.ParseSpecLine(strings.Join(fields[1:], " "))
			if err != nil || !ok {
				return fmt.Errorf("timeline: line %d: bad fault spec: %v", lineNo, err)
			}
			out.Faults = append(out.Faults, spec)
		case "local_timeline":
			e, err := decodeRecord(&out, line, &currentHost)
			if err != nil {
				return fmt.Errorf("timeline: line %d: %v", lineNo, err)
			}
			if len(out.Entries) == 0 { // sized once: every line left could be an entry
				if n := strings.Count(rest, "\n") + 1; cap(out.Entries) < n {
					out.Entries = make([]Entry, 0, n)
				}
			}
			out.Entries = append(out.Entries, e)
		default:
			return fmt.Errorf("timeline: line %d: content %q outside any section", lineNo, line)
		}
	}
	if section != "await" {
		return fmt.Errorf("timeline: unterminated section %q", section)
	}
	*l = out
	return nil
}

// addName appends name to list, the name list decode is building, which is
// a clipped prefix of spare, spare's list of that section, for as long as
// every name read matches spare's: appending to it past that copies it.
func addName(list, spare []string, name string) []string {
	if n := len(list); n < len(spare) && spare[n] == name && (n == 0 || &list[0] == &spare[0]) {
		return spare[: n+1 : n+1]
	}
	return append(list, name)
}

// MarshalText renders the timeline as its §3.5.6 text, so a record that
// carries local timelines (the checkpoint journal's) holds each as one JSON
// string and shares one format with the .timeline artifacts and the
// cluster's result frames.
func (l *Local) MarshalText() ([]byte, error) { return l.AppendText(nil) }

// UnmarshalText reverses MarshalText.
func (l *Local) UnmarshalText(b []byte) error { return l.decode(string(b), nil) }

func parseIndexed(line string, want int) (string, error) {
	var fields [2]string
	if splitFields(line, fields[:]) != 2 {
		return "", fmt.Errorf("want '<index> <name>', got %q", line)
	}
	idx, err := strconv.Atoi(fields[0])
	if err != nil || idx != want {
		return "", fmt.Errorf("bad index in %q (want %d)", line, want)
	}
	return fields[1], nil
}

func decodeRecord(l *Local, line string, currentHost *string) (Entry, error) {
	var buf [5]string
	n := splitFields(line, buf[:])
	fields := buf[:min(n, len(buf))]
	if n < 4 {
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
		if n != 5 {
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
		var timeFields [2]string
		if splitFields(rest[closing+1:], timeFields[:]) != 2 {
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

// splitFields splits line around runs of white space, as strings.Fields
// does, into dst and returns the number of fields, which may exceed
// len(dst): the fields past it are counted, not kept. An ASCII line is
// split in place; a line holding any other byte, which strings.Fields
// would split around Unicode white space too, goes through strings.Fields.
// (internal/analysis keeps the same helper for the §5.7 format.)
func splitFields(line string, dst []string) int {
	n, start := 0, -1
	for i := 0; i <= len(line); i++ {
		switch {
		case i < len(line) && line[i] >= utf8.RuneSelf:
			f := strings.Fields(line)
			copy(dst, f)
			return len(f)
		case i == len(line) || asciiSpace(line[i]):
			if start >= 0 {
				if n < len(dst) {
					dst[n] = line[start:i]
				}
				n++
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	return n
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}
