package config

import (
	"fmt"
	"strings"

	"repro/app"
	"repro/internal/campaign"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
	"repro/internal/transport"
)

// Validate checks a campaign file without running anything: every name
// resolves, every fault line parses, every count is sane (the same
// Workers/Experiments rules campaign.Run enforces). A valid file may still
// fail at runtime — application behaviour cannot be checked statically —
// but no typo survives to mid-campaign.
func Validate(c *Campaign) error {
	if c == nil {
		return fmt.Errorf("config: nil campaign")
	}
	if c.Name == "" {
		return fmt.Errorf("config: campaign name is required")
	}
	if err := campaign.ValidateWorkers(c.Workers); err != nil {
		return err
	}
	if !transport.ValidKind(c.Transport) {
		return fmt.Errorf("config: unknown transport %q (want inproc, udp, or tcp)", c.Transport)
	}
	hostNames := make(map[string]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		if h.Name == "" {
			return fmt.Errorf("config: host with empty name")
		}
		if hostNames[h.Name] {
			return fmt.Errorf("config: duplicate host %q", h.Name)
		}
		hostNames[h.Name] = true
	}
	if len(c.Studies) == 0 && c.Matrix == nil {
		return fmt.Errorf("config: campaign %q defines no studies and no matrix", c.Name)
	}
	if len(c.Studies) > 0 && c.Matrix != nil {
		return fmt.Errorf("config: campaign %q defines both studies and a matrix; split into two files", c.Name)
	}

	studyNames := make(map[string]bool, len(c.Studies))
	for i := range c.Studies {
		s := &c.Studies[i]
		if s.Name == "" {
			return fmt.Errorf("config: study %d has no name", i)
		}
		if studyNames[s.Name] {
			return fmt.Errorf("config: duplicate study name %q", s.Name)
		}
		studyNames[s.Name] = true
		if err := validateStudy(c, s, hostNames); err != nil {
			return err
		}
	}

	if m := c.Matrix; m != nil {
		if m.Study == nil {
			return fmt.Errorf("config: matrix %q has no study template", m.Name)
		}
		if err := validateStudy(c, m.Study, hostNames); err != nil {
			return err
		}
		scenarioNames := make(map[string]bool, len(m.Scenarios))
		for _, sc := range m.Scenarios {
			if sc.Name == "" {
				return fmt.Errorf("config: matrix %q: scenario with empty name", m.Name)
			}
			if scenarioNames[sc.Name] {
				return fmt.Errorf("config: matrix %q: duplicate scenario %q", m.Name, sc.Name)
			}
			scenarioNames[sc.Name] = true
			if _, err := parseFaults(sc.Faults, nodeSet(m.Study.Nodes), fmt.Sprintf("scenario %q", sc.Name)); err != nil {
				return err
			}
		}
		latencyNames := make(map[string]bool, len(m.Latencies))
		for _, lp := range m.Latencies {
			if lp.Name == "" {
				return fmt.Errorf("config: matrix %q: latency profile with empty name", m.Name)
			}
			if latencyNames[lp.Name] {
				return fmt.Errorf("config: matrix %q: duplicate latency profile %q", m.Name, lp.Name)
			}
			latencyNames[lp.Name] = true
		}
		seeds := make(map[int64]bool, len(m.Seeds))
		for _, s := range m.Seeds {
			if seeds[s] {
				return fmt.Errorf("config: matrix %q: repeated seed %d (point names would collide)", m.Name, s)
			}
			seeds[s] = true
		}
	}

	if cl := c.Cluster; cl != nil {
		if c.VirtualTime {
			return fmt.Errorf("config: virtual time cannot drive a cluster; remove the cluster block or virtual_time")
		}
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

	measureNames := make(map[string]bool, len(c.Measures))
	for _, mm := range c.Measures {
		if mm.Name == "" {
			return fmt.Errorf("config: measure with empty name")
		}
		if measureNames[mm.Name] {
			return fmt.Errorf("config: duplicate measure %q", mm.Name)
		}
		measureNames[mm.Name] = true
		if len(mm.Triples) == 0 {
			return fmt.Errorf("config: measure %q has no triples", mm.Name)
		}
		for i, tr := range mm.Triples {
			if tr.Select != "" && tr.Select != "default" {
				if _, err := measure.ParseSelector(tr.Select); err != nil {
					return fmt.Errorf("config: measure %q triple %d: %w", mm.Name, i, err)
				}
			}
			if _, err := predicate.Parse(tr.Predicate); err != nil {
				return fmt.Errorf("config: measure %q triple %d: %w", mm.Name, i, err)
			}
			if _, err := observation.Parse(tr.Observation); err != nil {
				return fmt.Errorf("config: measure %q triple %d: %w", mm.Name, i, err)
			}
		}
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

// validateStudy checks one study (or the matrix template, whose name may
// be empty).
func validateStudy(c *Campaign, s *Study, hostNames map[string]bool) error {
	what := fmt.Sprintf("study %q", s.Name)
	if s.Name == "" {
		what = "matrix study template"
	}
	if _, ok := app.Lookup(appName(s.App)); !ok {
		return fmt.Errorf("config: %s: unknown app %q (want %s)", what, s.App, strings.Join(appNames(), " or "))
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
	if err := campaign.ValidateExperiments(s.Name, s.Experiments); err != nil {
		return err
	}
	if err := campaign.ValidateWorkers(s.Workers); err != nil {
		return fmt.Errorf("config: %s: %w", what, err)
	}
	if !transport.ValidKind(s.Transport) {
		return fmt.Errorf("config: %s: unknown transport %q (want inproc, udp, or tcp)", what, s.Transport)
	}
	if c.VirtualTime {
		if tr := studyTransport(c, s); tr != "" && tr != transport.KindNameInproc {
			return fmt.Errorf("config: %s: virtual time requires the inproc transport, not %q", what, tr)
		}
	}
	_, err := parseFaults(s.Faults, seen, what)
	return err
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
