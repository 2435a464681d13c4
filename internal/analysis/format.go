package analysis

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/timeline"
	"repro/internal/vclock"
)

// This file defines the on-disk format for global timelines, the artifact
// makeglobal produces and the measure tools consume (§5.7). The thesis
// names the file but not its grammar; the format mirrors the Fig. 4.2
// table, one event per line with conservative bounds:
//
//	global_timeline <reference-host>
//	S <machine> <state> <event> <host> <local> <lo> <hi>
//	F <machine> <fault> <host> <local> <lo> <hi>
//	end_global_timeline

// Encode writes g in the global timeline file format. AppendText is the
// encoder; Encode appends into w's AvailableBuffer when w has one (a warm
// obs.ArtifactWriter does), so the text is built in memory w already owns,
// and writes it with one Write.
func Encode(w io.Writer, g *Global) error {
	b, err := g.AppendText(availableBuffer(w))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendText appends g's §5.7 text to dst and returns the extended slice.
// It never fails; the error result gives it the standard AppendText shape.
func (g *Global) AppendText(dst []byte) ([]byte, error) {
	dst = append(dst, "global_timeline "...)
	dst = append(dst, g.Reference...)
	dst = append(dst, '\n')
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Kind {
		case timeline.StateChange:
			dst = appendWords(dst, "S", e.Machine, e.State, e.Event, e.Host)
		case timeline.FaultInjection:
			dst = appendWords(dst, "F", e.Machine, e.Fault, e.Host)
		default:
			continue
		}
		dst = appendInts(dst, int64(e.Local), int64(e.Ref.Lo), int64(e.Ref.Hi))
	}
	return append(dst, "end_global_timeline\n"...), nil
}

// textLen is the length of g's §5.7 text, so MarshalText allocates it once.
func (g *Global) textLen() int {
	n := len("global_timeline \n") + len(g.Reference) + len("end_global_timeline\n")
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Kind {
		case timeline.StateChange:
			n += len("S ") + len(e.Machine) + len(e.State) + len(e.Event) + len(e.Host) + 4
		case timeline.FaultInjection:
			n += len("F ") + len(e.Machine) + len(e.Fault) + len(e.Host) + 3
		default:
			continue
		}
		n += decLen(int64(e.Local)) + decLen(int64(e.Ref.Lo)) + decLen(int64(e.Ref.Hi)) + len("  \n")
	}
	return n
}

// appendWords appends each word followed by one space.
func appendWords(dst []byte, words ...string) []byte {
	for _, w := range words {
		dst = append(dst, w...)
		dst = append(dst, ' ')
	}
	return dst
}

// appendInts appends the numbers in decimal, space-separated, and ends
// the line.
func appendInts(dst []byte, nums ...int64) []byte {
	for i, v := range nums {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, '\n')
}

// decLen is the length of v in decimal.
func decLen(v int64) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], v, 10))
}

// availableBuffer returns w's unused buffer capacity, empty, when w offers
// it (bufio.Writer, bytes.Buffer), and nil otherwise. (internal/timeline
// and internal/clocksync keep the same helper.)
func availableBuffer(w io.Writer) []byte {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return ab.AvailableBuffer()
	}
	return nil
}

// Decode parses the global timeline file format.
func Decode(r io.Reader) (*Global, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeString(string(b))
}

// DecodeString is Decode from a string.
func DecodeString(s string) (*Global, error) {
	g := new(Global)
	if err := g.decode(s); err != nil {
		return nil, err
	}
	return g, nil
}

// decode parses doc in place: it walks doc's lines and splits each into a
// fixed array, so the decoded names are substrings of doc and a document
// costs its event slice and machine list, each sized once (the machines
// are gathered on the stack first; no events, no list). On error g is left
// as it was.
func (g *Global) decode(doc string) error {
	var (
		out            Global
		lineNo         int
		started, ended bool
		fieldBuf       [8]string
		machineBuf     [8]string
	)
	machines := machineBuf[:0]
	for rest := doc; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		n := splitFields(line, fieldBuf[:])
		fields := fieldBuf[:min(n, len(fieldBuf))]
		switch fields[0] {
		case "global_timeline":
			if n != 2 {
				return fmt.Errorf("analysis: line %d: bad header %q", lineNo, line)
			}
			out.Reference = fields[1]
			started = true
			continue
		case "end_global_timeline":
			ended = true
			continue
		}
		if !started || ended {
			return fmt.Errorf("analysis: line %d: record outside global_timeline block", lineNo)
		}
		var e Event
		var numStart int
		switch fields[0] {
		case "S":
			if n != 8 {
				return fmt.Errorf("analysis: line %d: S record wants 8 fields", lineNo)
			}
			e = Event{Kind: timeline.StateChange, Machine: fields[1], State: fields[2], Event: fields[3], Host: fields[4]}
			numStart = 5
		case "F":
			if n != 7 {
				return fmt.Errorf("analysis: line %d: F record wants 7 fields", lineNo)
			}
			e = Event{Kind: timeline.FaultInjection, Machine: fields[1], Fault: fields[2], Host: fields[3]}
			numStart = 4
		default:
			return fmt.Errorf("analysis: line %d: unknown record %q", lineNo, fields[0])
		}
		var nums [3]int64
		for i := range nums {
			v, err := strconv.ParseInt(fields[numStart+i], 10, 64)
			if err != nil {
				return fmt.Errorf("analysis: line %d: bad number %q", lineNo, fields[numStart+i])
			}
			nums[i] = v
		}
		e.Local = vclock.Ticks(nums[0])
		e.Ref = Interval{Lo: vclock.Ticks(nums[1]), Hi: vclock.Ticks(nums[2])}
		if out.Events == nil { // sized once: every line left could be an event
			out.Events = make([]Event, 0, strings.Count(rest, "\n")+1)
		}
		out.Events = append(out.Events, e)
		if !slices.Contains(machines, e.Machine) {
			machines = append(machines, e.Machine)
		}
	}
	if !started || !ended {
		return fmt.Errorf("analysis: missing global_timeline header or terminator")
	}
	out.Machines = append([]string(nil), machines...) // one allocation, or nil
	slices.Sort(out.Machines)
	*g = out
	return nil
}

// MarshalText renders the timeline as its §5.7 text, so a record that
// embeds a Global (the checkpoint journal's) carries it as one JSON string
// and shares one format with the global.timeline artifact.
func (g *Global) MarshalText() ([]byte, error) {
	return g.AppendText(make([]byte, 0, g.textLen()))
}

// UnmarshalText reverses MarshalText.
func (g *Global) UnmarshalText(b []byte) error { return g.decode(string(b)) }

// splitFields splits line around runs of white space, as strings.Fields
// does, into dst and returns the number of fields, which may exceed
// len(dst): the fields past it are counted, not kept. An ASCII line is
// split in place; a line holding any other byte, which strings.Fields
// would split around Unicode white space too, goes through strings.Fields.
// (internal/timeline keeps the same helper for the §3.5.6 format.)
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
