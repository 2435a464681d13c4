package config

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/spec"
)

// The thesis-era file formats the command-line drivers still accept
// alongside campaign files: node files (spec.ParseNodeFile), fault files,
// and scenario files. They all reduce to schema fields — a fault file is a
// study's Faults list, a scenario file is a Matrix's Scenarios list — so
// the drivers assemble a Campaign from them and go through the same
// Validate/Build path as -config.

// FaultLines extracts the fault specification lines of a fault file
// (machine-prefixed §3.5.5 entries), dropping blanks and '#' comments. The
// lines are parsed, and checked against the study's machines, by Build.
func FaultLines(doc string) []string {
	var out []string
	for _, raw := range strings.Split(doc, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// ParseScenarioFile parses a scenario specification document:
//
//	scenario netsplit
//	  # machine-prefixed fault lines, action calls allowed
//	  green gsplit (green:LEAD) once partition(h2|h1,h3) 50ms
//	end
//
// Blank lines and '#' comments are ignored. A scenario with no fault lines
// is a legal baseline. Fault lines are parsed here, so a typo fails at
// load, but carried as schema text so scenarios drop into a Matrix.
func ParseScenarioFile(doc string) ([]Scenario, error) {
	var (
		out     []Scenario
		current *Scenario
		seen    = map[string]bool{}
	)
	for i, raw := range strings.Split(doc, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "scenario":
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: scenario file line %d: want 'scenario <name>'", i+1)
			}
			name := fields[1]
			if current != nil {
				return nil, fmt.Errorf("config: scenario file line %d: scenario %q not closed with 'end'", i+1, current.Name)
			}
			if seen[name] {
				return nil, fmt.Errorf("config: scenario file line %d: duplicate scenario %q", i+1, name)
			}
			seen[name] = true
			current = &Scenario{Name: name}
		case line == "end":
			if current == nil {
				return nil, fmt.Errorf("config: scenario file line %d: 'end' without scenario", i+1)
			}
			out = append(out, *current)
			current = nil
		default:
			if current == nil {
				return nil, fmt.Errorf("config: scenario file line %d: fault line outside a scenario block", i+1)
			}
			if _, err := campaign.ParseScenarioFaults(line); err != nil {
				return nil, fmt.Errorf("config: scenario file line %d: %v", i+1, err)
			}
			current.Faults = append(current.Faults, line)
		}
	}
	if current != nil {
		return nil, fmt.Errorf("config: scenario file: scenario %q not closed with 'end'", current.Name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("config: scenario file defines no scenarios")
	}
	return out, nil
}

// FindScenario returns the named scenario.
func FindScenario(scenarios []Scenario, name string) (Scenario, error) {
	var names []string
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("config: unknown scenario %q (have: %s)", name, strings.Join(names, ", "))
}

// ClassicOptions tunes AssembleClassic: the study-shaping flags the
// thesis-era drivers share.
type ClassicOptions struct {
	// StudyName names the single study ("study1" for lokirun, "runtime"
	// for lokirun runtime — the artifact namespaces the tools always
	// used).
	StudyName string
	// App selects the built-in application.
	App string
	// Experiments is the experiment count.
	Experiments int
	// Seed drives clock errors and application randomness.
	Seed int64
	// RunFor bounds each node's life; Dormancy delays injected crashes.
	RunFor, Dormancy time.Duration
	// Restart enables the crash-restart supervisor.
	Restart bool
}

// AssembleClassic builds the one-study campaign description both drivers
// share from the thesis-era files: a §3.5.1 node file document plus
// machine-prefixed fault lines (FaultLines of a fault file, possibly with
// a scenario overlay appended). The result goes through the same
// Validate/Build path as a -config file; the sync configuration matches
// the drivers' historical 12 messages / 25 µs transit.
func AssembleClassic(name, nodesDoc string, faultLines []string, o ClassicOptions) (*Campaign, error) {
	entries, err := spec.ParseNodeFile(nodesDoc)
	if err != nil {
		return nil, err
	}
	study := Study{
		Name:        o.StudyName,
		App:         o.App,
		Experiments: o.Experiments,
		Seed:        o.Seed,
		RunFor:      Duration(o.RunFor),
		Dormancy:    Duration(o.Dormancy),
		Restart:     o.Restart,
		Faults:      faultLines,
	}
	for _, e := range entries {
		study.Nodes = append(study.Nodes, Node{Name: e.Nickname, Host: e.Host})
	}
	return &Campaign{
		Name:    name,
		Seed:    o.Seed,
		Studies: []Study{study},
		Sync:    &Sync{Messages: 12, Transit: Duration(25 * time.Microsecond)},
	}, nil
}

// AssembleClassicFiles is AssembleClassic over file paths: it reads the
// node file and the optional fault file, so both drivers share the whole
// classic-files-to-campaign path instead of near-identical copies.
func AssembleClassicFiles(name, nodesPath, faultsPath string, o ClassicOptions) (*Campaign, error) {
	nodesDoc, err := os.ReadFile(nodesPath)
	if err != nil {
		return nil, fmt.Errorf("config: reading node file: %w", err)
	}
	var faultLines []string
	if faultsPath != "" {
		doc, err := os.ReadFile(faultsPath)
		if err != nil {
			return nil, fmt.Errorf("config: reading fault file: %w", err)
		}
		faultLines = FaultLines(string(doc))
	}
	return AssembleClassic(name, string(nodesDoc), faultLines, o)
}

// ParseAssignments parses the drivers' "key=value,key=value" flag syntax
// (peer tables, host ownership).
func ParseAssignments(s, what string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("config: %s entry %q: want key=value", what, part)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("config: %s entry %q: duplicate key", what, part)
		}
		out[k] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("config: empty %s table", what)
	}
	return out, nil
}
