package spec

import (
	"fmt"
	"strings"
)

// NodeEntry is one line of the node file (§3.5.1):
//
//	<SM NickName> [<HostName>]
//
// If Host is non-empty the central daemon starts the machine on that host at
// the beginning of every experiment; otherwise the machine is known (it may
// enter dynamically) but not auto-started.
type NodeEntry struct {
	Nickname string
	Host     string
}

// AutoStart reports whether this machine starts at experiment begin.
func (e NodeEntry) AutoStart() bool { return e.Host != "" }

// ParseNodeFile parses a node file. Every state machine that could possibly
// run during an experiment must appear (§3.8).
func ParseNodeFile(doc string) ([]NodeEntry, error) {
	var entries []NodeEntry
	seen := make(map[string]bool)
	for i, raw := range strings.Split(doc, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) > 2 {
			return nil, fmt.Errorf("spec: node file line %d: want '<nick> [<host>]', got %q", i+1, line)
		}
		e := NodeEntry{Nickname: fields[0]}
		if len(fields) == 2 {
			e.Host = fields[1]
		}
		if seen[e.Nickname] {
			return nil, fmt.Errorf("spec: node file line %d: duplicate nickname %q", i+1, e.Nickname)
		}
		seen[e.Nickname] = true
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("spec: node file is empty")
	}
	return entries, nil
}

// ParseMachinesFile parses the machines file (§5.6): one host name per line.
func ParseMachinesFile(doc string) ([]string, error) {
	var hosts []string
	seen := make(map[string]bool)
	for i, raw := range strings.Split(doc, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 1 {
			return nil, fmt.Errorf("spec: machines file line %d: one host per line, got %q", i+1, line)
		}
		if seen[line] {
			return nil, fmt.Errorf("spec: machines file line %d: duplicate host %q", i+1, line)
		}
		seen[line] = true
		hosts = append(hosts, line)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("spec: machines file is empty")
	}
	return hosts, nil
}
