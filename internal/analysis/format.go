package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// Encode writes g in the global timeline file format.
func Encode(w io.Writer, g *Global) error {
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

// EncodeString is Encode into a string.
func EncodeString(g *Global) (string, error) {
	var b strings.Builder
	if err := Encode(&b, g); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Decode parses the global timeline file format.
func Decode(r io.Reader) (*Global, error) {
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

// DecodeString is Decode from a string.
func DecodeString(s string) (*Global, error) { return Decode(strings.NewReader(s)) }

// MarshalJSON renders the timeline as a JSON string holding its §5.7 text,
// so a record that embeds a Global (the checkpoint journal's) shares one
// format with the global.timeline artifact.
func (g *Global) MarshalJSON() ([]byte, error) {
	doc, err := EncodeString(g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// UnmarshalJSON reverses MarshalJSON.
func (g *Global) UnmarshalJSON(b []byte) error {
	var doc string
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("analysis: global timeline: %w", err)
	}
	dec, err := DecodeString(doc)
	if err != nil {
		return err
	}
	*g = *dec
	return nil
}

func sortMachines(g *Global) {
	for i := 1; i < len(g.Machines); i++ {
		for j := i; j > 0 && g.Machines[j] < g.Machines[j-1]; j-- {
			g.Machines[j], g.Machines[j-1] = g.Machines[j-1], g.Machines[j]
		}
	}
}
