package analysis

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/timeline"
	"repro/internal/vclock"
)

// This file keeps the scanner-based global timeline decoder that Decode
// replaced, verbatim but for its name, as the reference FuzzDecodeGlobal
// compares the in-place decoder against: the two must accept and reject
// the same documents and decode the same timelines.

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
	sortMachines(g)
	return g, nil
}
