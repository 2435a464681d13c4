package config

import (
	"fmt"
	"strings"

	"repro/app"
	"repro/internal/campaign"
	"repro/internal/transport"
)

// Validate checks a campaign file without running anything. It is Build,
// then campaign.Validate — the one owner of every rule about a campaign
// the engines can run — on what Build made, then BuildMeasures; the
// results are thrown away. A valid file may still fail at runtime —
// application behaviour cannot be checked statically — but no typo
// survives to mid-campaign.
func Validate(c *Campaign) error {
	cc, m, err := Build(c)
	if err != nil {
		return err
	}
	if err := campaign.Validate(cc, m); err != nil {
		return err
	}
	_, err = BuildMeasures(c)
	return err
}

// checkFile checks what only the file can show, before Build translates
// it: the names the engine types have no place for, node placements and
// cluster owners naming known hosts, a registered app, the cluster tables,
// the checkpoint directory, and studies or a matrix but not both.
func checkFile(c *Campaign) error {
	if c == nil {
		return fmt.Errorf("config: nil campaign")
	}
	if c.Name == "" {
		return fmt.Errorf("config: campaign name is required")
	}
	hostNames := make(map[string]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		hostNames[h.Name] = true
	}
	if len(c.Studies) > 0 && c.Matrix != nil {
		return fmt.Errorf("config: campaign %q defines both studies and a matrix; split into two files", c.Name)
	}
	for i := range c.Studies {
		s := &c.Studies[i]
		if s.Name == "" {
			return fmt.Errorf("config: study %d has no name", i)
		}
		if err := checkStudy(s, hostNames); err != nil {
			return err
		}
	}
	if m := c.Matrix; m != nil {
		if m.Study == nil {
			return fmt.Errorf("config: matrix %q has no study template", m.Name)
		}
		if err := checkStudy(m.Study, hostNames); err != nil {
			return err
		}
		for _, sc := range m.Scenarios {
			if sc.Name == "" {
				return fmt.Errorf("config: matrix %q: scenario with empty name", m.Name)
			}
		}
		for _, lp := range m.Latencies {
			if lp.Name == "" {
				return fmt.Errorf("config: matrix %q: latency profile with empty name", m.Name)
			}
		}
	}
	if cl := c.Cluster; cl != nil {
		if cl.Kind != transport.KindNameUDP && cl.Kind != transport.KindNameTCP {
			return fmt.Errorf("config: cluster kind %q (want udp or tcp)", cl.Kind)
		}
		if len(cl.Peers) == 0 {
			return fmt.Errorf("config: cluster has no peers")
		}
		if len(cl.Owners) == 0 {
			return fmt.Errorf("config: cluster has no host owners")
		}
		for host, peer := range cl.Owners {
			if _, ok := cl.Peers[peer]; !ok {
				return fmt.Errorf("config: cluster: host %q owned by unknown peer %q", host, peer)
			}
			if len(hostNames) > 0 && !hostNames[host] {
				return fmt.Errorf("config: cluster: ownership entry for unknown host %q", host)
			}
		}
	}
	if c.Checkpoint != nil && c.Checkpoint.Dir == "" {
		return fmt.Errorf("config: checkpoint requires a dir")
	}
	return nil
}

// nodeSet collects a study's machine nicknames.
func nodeSet(nodes []Node) map[string]bool {
	out := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		out[n.Name] = true
	}
	return out
}

// studyWhat names a study (or the matrix template, whose name may be
// empty) in errors.
func studyWhat(s *Study) string {
	if s.Name == "" {
		return "matrix study template"
	}
	return fmt.Sprintf("study %q", s.Name)
}

// checkStudy checks one study's file-only facts: a registered app, named
// and unique nodes, placements on known hosts, and something to
// auto-start.
func checkStudy(s *Study, hostNames map[string]bool) error {
	what := studyWhat(s)
	if _, ok := app.Lookup(appName(s.App)); !ok {
		return fmt.Errorf("config: %s: unknown app %q (want %s)", what, s.App, strings.Join(app.Names(), " or "))
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("config: %s: no nodes", what)
	}
	seen := make(map[string]bool, len(s.Nodes))
	autoStarted := 0
	for _, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("config: %s: node with empty name", what)
		}
		if seen[n.Name] {
			return fmt.Errorf("config: %s: duplicate node %q", what, n.Name)
		}
		seen[n.Name] = true
		if n.Host != "" {
			autoStarted++
			if len(hostNames) > 0 && !hostNames[n.Host] {
				return fmt.Errorf("config: %s: node %q placed on unknown host %q", what, n.Name, n.Host)
			}
		}
	}
	if autoStarted == 0 {
		return fmt.Errorf("config: %s: no node has a host; nothing would auto-start", what)
	}
	return nil
}

// parseFaults parses machine-prefixed fault lines and checks every machine
// reference against the study's nodes.
func parseFaults(lines []string, machines map[string]bool, what string) ([]campaign.ScenarioFault, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	sf, err := campaign.ParseScenarioFaults(strings.Join(lines, "\n"))
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", what, err)
	}
	for _, f := range sf {
		if !machines[f.Machine] {
			return nil, fmt.Errorf("config: %s: fault %q names unknown machine %q", what, f.Spec.Name, f.Machine)
		}
	}
	return sf, nil
}
