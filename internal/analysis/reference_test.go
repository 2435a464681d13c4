package analysis

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/timeline"
	"repro/internal/vclock"
)

// This file keeps the scanner-based global timeline decoder that Decode
// replaced and the fmt-based encoder that AppendText replaced, verbatim but
// for their names, as the references FuzzDecodeGlobal compares the in-place
// decoder and the appending encoder against: the decoders must accept and
// reject the same documents and decode the same timelines, and the encoders
// must write the same bytes.

// referenceEncode writes g in the global timeline file format.
func referenceEncode(w io.Writer, g *Global) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "global_timeline %s\n", g.Reference)
	for _, e := range g.Events {
		switch e.Kind {
		case timeline.StateChange:
			fmt.Fprintf(bw, "S %s %s %s %s %d %d %d\n",
				e.Machine, e.State, e.Event, e.Host, int64(e.Local), int64(e.Ref.Lo), int64(e.Ref.Hi))
		case timeline.FaultInjection:
			fmt.Fprintf(bw, "F %s %s %s %d %d %d\n",
				e.Machine, e.Fault, e.Host, int64(e.Local), int64(e.Ref.Lo), int64(e.Ref.Hi))
		}
	}
	bw.WriteString("end_global_timeline\n")
	return bw.Flush()
}

// referenceDecode parses the global timeline file format.
func referenceDecode(r io.Reader) (*Global, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	g := &Global{}
	seen := make(map[string]bool)
	lineNo := 0
	started, ended := false, false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "global_timeline":
			if len(fields) != 2 {
				return nil, fmt.Errorf("analysis: line %d: bad header %q", lineNo, line)
			}
			g.Reference = fields[1]
			started = true
			continue
		case "end_global_timeline":
			ended = true
			continue
		}
		if !started || ended {
			return nil, fmt.Errorf("analysis: line %d: record outside global_timeline block", lineNo)
		}
		var e Event
		var numStart int
		switch fields[0] {
		case "S":
			if len(fields) != 8 {
				return nil, fmt.Errorf("analysis: line %d: S record wants 8 fields", lineNo)
			}
			e = Event{Kind: timeline.StateChange, Machine: fields[1], State: fields[2], Event: fields[3], Host: fields[4]}
			numStart = 5
		case "F":
			if len(fields) != 7 {
				return nil, fmt.Errorf("analysis: line %d: F record wants 7 fields", lineNo)
			}
			e = Event{Kind: timeline.FaultInjection, Machine: fields[1], Fault: fields[2], Host: fields[3]}
			numStart = 4
		default:
			return nil, fmt.Errorf("analysis: line %d: unknown record %q", lineNo, fields[0])
		}
		var nums [3]int64
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseInt(fields[numStart+i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("analysis: line %d: bad number %q", lineNo, fields[numStart+i])
			}
			nums[i] = v
		}
		e.Local = vclock.Ticks(nums[0])
		e.Ref = Interval{Lo: vclock.Ticks(nums[1]), Hi: vclock.Ticks(nums[2])}
		g.Events = append(g.Events, e)
		if !seen[e.Machine] {
			seen[e.Machine] = true
			g.Machines = append(g.Machines, e.Machine)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !started || !ended {
		return nil, fmt.Errorf("analysis: missing global_timeline header or terminator")
	}
	slices.Sort(g.Machines)
	return g, nil
}
