package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// Built-in actions. Each maps to one spec-file spelling (ParseAction):
//
//	partition(h1|h2,h3)        split host groups ('|' separates groups,
//	                           ',' separates members; one group isolates
//	                           it from everyone else)
//	heal(h1|h2,h3) / heal()    undo a partition / heal everything
//	drop(from,to,p)            drop messages on a link with probability p
//	delay(from,to,d[,jitter])  delay messages by d plus uniform [0,jitter)
//	duplicate(from,to,p[,n])   deliver n extra copies with probability p
//	corrupt(from,to,p)         corrupt payloads with probability p
//	crash(host)                crash a host (nodes on it die)
//	crashrestart(host,after)   crash a host, reboot it and restart its
//	                           nodes after the delay
//	clockstep(host,delta)      step a host clock by delta (may be negative)
//
// Link ends accept "*" as a wildcard. Filter-backed actions derive their
// install id from their own call syntax, so re-applying an `always` fault
// refreshes the same rule instead of stacking a duplicate.

// Partition splits the testbed into isolated host groups.
type Partition struct {
	Groups [][]string
}

// Name implements Action.
func (p *Partition) Name() string { return "partition" }

// Apply implements Action: block every cross-group host pair. A single
// group is isolated from every other host on the testbed.
func (p *Partition) Apply(rt *core.Runtime) error {
	for _, pair := range p.pairs(rt) {
		rt.PartitionHosts(pair[0], pair[1])
	}
	return nil
}

// Revert implements Action: heal the same pairs.
func (p *Partition) Revert(rt *core.Runtime) error {
	for _, pair := range p.pairs(rt) {
		rt.HealHosts(pair[0], pair[1])
	}
	return nil
}

func (p *Partition) pairs(rt *core.Runtime) [][2]string {
	groups := p.Groups
	if len(groups) == 1 {
		// Isolate the group from the rest of the testbed.
		in := make(map[string]bool, len(groups[0]))
		for _, h := range groups[0] {
			in[h] = true
		}
		var rest []string
		for _, h := range rt.Hosts() {
			if !in[h] {
				rest = append(rest, h)
			}
		}
		groups = append(groups, rest)
	}
	var out [][2]string
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					out = append(out, [2]string{a, b})
				}
			}
		}
	}
	return out
}

// HealPartition removes partitions: the listed group split, or everything
// when no groups are given.
type HealPartition struct {
	Groups [][]string
}

// Name implements Action.
func (h *HealPartition) Name() string { return "heal" }

// Apply implements Action.
func (h *HealPartition) Apply(rt *core.Runtime) error {
	if len(h.Groups) == 0 {
		rt.HealAllPartitions()
		return nil
	}
	return (&Partition{Groups: h.Groups}).Revert(rt)
}

// Revert implements Action: healing has nothing to undo.
func (h *HealPartition) Revert(*core.Runtime) error { return nil }

// linkAction carries the shared link-and-id plumbing of the filter-backed
// actions.
type linkAction struct {
	Link simnet.Link
	id   string
}

func (l linkAction) install(rt *core.Runtime, f simnet.Filter) error {
	rt.InstallLinkFilter(l.Link, l.id, f)
	return nil
}

func (l linkAction) remove(rt *core.Runtime) error {
	rt.RemoveLinkFilter(l.Link, l.id)
	return nil
}

// DropMessages drops link traffic with probability P.
type DropMessages struct {
	linkAction
	P float64
}

// Name implements Action.
func (d *DropMessages) Name() string { return "drop" }

// Apply implements Action.
func (d *DropMessages) Apply(rt *core.Runtime) error {
	return d.install(rt, simnet.DropFilter{P: d.P})
}

// Revert implements Action.
func (d *DropMessages) Revert(rt *core.Runtime) error { return d.remove(rt) }

// DelayMessages adds Delay plus uniform [0, Jitter) to link traffic.
type DelayMessages struct {
	linkAction
	Delay  time.Duration
	Jitter time.Duration
}

// Name implements Action.
func (d *DelayMessages) Name() string { return "delay" }

// Apply implements Action.
func (d *DelayMessages) Apply(rt *core.Runtime) error {
	return d.install(rt, simnet.DelayFilter{
		Extra:  vclock.FromDuration(d.Delay),
		Jitter: vclock.FromDuration(d.Jitter),
	})
}

// Revert implements Action.
func (d *DelayMessages) Revert(rt *core.Runtime) error { return d.remove(rt) }

// DuplicateMessages delivers Copies extra copies with probability P.
type DuplicateMessages struct {
	linkAction
	P      float64
	Copies int
}

// Name implements Action.
func (d *DuplicateMessages) Name() string { return "duplicate" }

// Apply implements Action.
func (d *DuplicateMessages) Apply(rt *core.Runtime) error {
	return d.install(rt, simnet.DuplicateFilter{P: d.P, Copies: d.Copies})
}

// Revert implements Action.
func (d *DuplicateMessages) Revert(rt *core.Runtime) error { return d.remove(rt) }

// CorruptPayload wraps link payloads in the tamper envelope
// (simnet.Corrupted) with probability P.
type CorruptPayload struct {
	linkAction
	P float64
}

// Name implements Action.
func (c *CorruptPayload) Name() string { return "corrupt" }

// Apply implements Action.
func (c *CorruptPayload) Apply(rt *core.Runtime) error {
	return c.install(rt, simnet.CorruptFilter{P: c.P})
}

// Revert implements Action.
func (c *CorruptPayload) Revert(rt *core.Runtime) error { return c.remove(rt) }

// CrashRestart crashes a host — every node on it dies through the hostfail
// path — and, when RestartAfter is positive, reboots it and restarts those
// nodes after the delay (§3.6.4 host crash and reboot).
type CrashRestart struct {
	Host         string
	RestartAfter time.Duration
}

// Name implements Action.
func (c *CrashRestart) Name() string {
	if c.RestartAfter > 0 {
		return "crashrestart"
	}
	return "crash"
}

// Apply implements Action.
func (c *CrashRestart) Apply(rt *core.Runtime) error {
	victims := rt.NodesOnHost(c.Host)
	if err := rt.CrashHost(c.Host); err != nil {
		return err
	}
	if c.RestartAfter > 0 {
		rt.ExpAfterFunc(c.RestartAfter, func() { c.restart(rt, victims) })
	}
	return nil
}

func (c *CrashRestart) restart(rt *core.Runtime, victims []string) {
	if err := rt.RebootHost(c.Host); err != nil {
		rt.Logf("chaos: restart host %s: %v", c.Host, err)
		return
	}
	for _, nick := range victims {
		if _, err := rt.StartNode(nick, c.Host); err != nil {
			rt.Logf("chaos: restart node %s on %s: %v", nick, c.Host, err)
		}
	}
}

// Revert implements Action: an early revert reboots the host (without
// waiting out RestartAfter) but leaves node restarts to the scheduled
// path.
func (c *CrashRestart) Revert(rt *core.Runtime) error { return rt.RebootHost(c.Host) }

// ClockStep steps a host's clock by Delta — the clock misbehaviour fault.
// Negative deltas model a clock set backwards. A mid-experiment step lands
// between the two synchronization mini-phases, making the off-line
// convex-hull estimation infeasible; the analysis phase then discards the
// experiment (ExperimentRecord.AnalysisError), which is the point: Loki
// must not certify injections it cannot prove. Experiment resets clear
// accumulated steps (core.ResetExperiment), so one experiment's skew
// cannot leak into the next.
type ClockStep struct {
	Host  string
	Delta time.Duration
}

// Name implements Action.
func (c *ClockStep) Name() string { return "clockstep" }

// Apply implements Action.
func (c *ClockStep) Apply(rt *core.Runtime) error {
	return rt.StepHostClock(c.Host, vclock.FromDuration(c.Delta))
}

// Revert implements Action: step back by the same amount.
func (c *ClockStep) Revert(rt *core.Runtime) error {
	return rt.StepHostClock(c.Host, -vclock.FromDuration(c.Delta))
}

// ParseAction resolves a fault specification's action call into a built-in
// Action.
func ParseAction(call *faultexpr.ActionCall) (Action, error) {
	name := strings.ToLower(call.Name)
	switch name {
	case "partition":
		groups, err := parseGroups(call.Raw)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", call, err)
		}
		if len(groups) == 0 {
			return nil, fmt.Errorf("chaos: %s: want at least one host group", call)
		}
		return &Partition{Groups: groups}, nil
	case "heal":
		groups, err := parseGroups(call.Raw)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", call, err)
		}
		return &HealPartition{Groups: groups}, nil
	case "drop":
		link, rest, err := parseLinkArgs(call, 1, 1)
		if err != nil {
			return nil, err
		}
		p, err := parseProb(call, rest[0])
		if err != nil {
			return nil, err
		}
		return &DropMessages{linkAction: newLinkAction(call, link), P: p}, nil
	case "delay":
		link, rest, err := parseLinkArgs(call, 1, 2)
		if err != nil {
			return nil, err
		}
		d, err := parseDur(call, rest[0])
		if err != nil {
			return nil, err
		}
		a := &DelayMessages{linkAction: newLinkAction(call, link), Delay: d}
		if len(rest) == 2 {
			if a.Jitter, err = parseDur(call, rest[1]); err != nil {
				return nil, err
			}
		}
		return a, nil
	case "duplicate":
		link, rest, err := parseLinkArgs(call, 1, 2)
		if err != nil {
			return nil, err
		}
		p, err := parseProb(call, rest[0])
		if err != nil {
			return nil, err
		}
		a := &DuplicateMessages{linkAction: newLinkAction(call, link), P: p, Copies: 1}
		if len(rest) == 2 {
			n, err := strconv.Atoi(rest[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("chaos: %s: bad copy count %q", call, rest[1])
			}
			a.Copies = n
		}
		return a, nil
	case "corrupt":
		link, rest, err := parseLinkArgs(call, 1, 1)
		if err != nil {
			return nil, err
		}
		p, err := parseProb(call, rest[0])
		if err != nil {
			return nil, err
		}
		return &CorruptPayload{linkAction: newLinkAction(call, link), P: p}, nil
	case "crash":
		if len(call.Args) != 1 || call.Args[0] == "" {
			return nil, fmt.Errorf("chaos: %s: want crash(host)", call)
		}
		return &CrashRestart{Host: call.Args[0]}, nil
	case "crashrestart":
		if len(call.Args) != 2 {
			return nil, fmt.Errorf("chaos: %s: want crashrestart(host,after)", call)
		}
		after, err := parseDur(call, call.Args[1])
		if err != nil {
			return nil, err
		}
		if after <= 0 {
			return nil, fmt.Errorf("chaos: %s: restart delay must be positive", call)
		}
		return &CrashRestart{Host: call.Args[0], RestartAfter: after}, nil
	case "clockstep":
		if len(call.Args) != 2 {
			return nil, fmt.Errorf("chaos: %s: want clockstep(host,delta)", call)
		}
		d, err := time.ParseDuration(call.Args[1])
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: bad delta %q: %v", call, call.Args[1], err)
		}
		return &ClockStep{Host: call.Args[0], Delta: d}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown action %q (want partition, heal, drop, delay, duplicate, corrupt, crash, crashrestart, or clockstep)", call.Name)
	}
}

// HostRefs returns the concrete host names an action references
// (wildcards excluded), so a campaign can reject a typoed host before any
// experiment runs — a partition of a nonexistent host would otherwise
// silently shape nothing.
func HostRefs(a Action) []string {
	switch v := a.(type) {
	case *Partition:
		return flattenGroups(v.Groups)
	case *HealPartition:
		return flattenGroups(v.Groups)
	case *DropMessages:
		return linkHosts(v.Link)
	case *DelayMessages:
		return linkHosts(v.Link)
	case *DuplicateMessages:
		return linkHosts(v.Link)
	case *CorruptPayload:
		return linkHosts(v.Link)
	case *CrashRestart:
		return []string{v.Host}
	case *ClockStep:
		return []string{v.Host}
	default:
		return nil
	}
}

func flattenGroups(groups [][]string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func linkHosts(link simnet.Link) []string {
	var out []string
	if link.From != simnet.Wildcard {
		out = append(out, link.From)
	}
	if link.To != simnet.Wildcard {
		out = append(out, link.To)
	}
	return out
}

// newLinkAction derives the filter id from the call syntax, so identical
// calls share one installed rule.
func newLinkAction(call *faultexpr.ActionCall, link simnet.Link) linkAction {
	return linkAction{Link: link, id: strings.ToLower(call.Name) + "(" + call.Raw + ")"}
}

// parseGroups parses "h1|h2,h3" into host groups: '|' separates groups,
// ',' separates members.
func parseGroups(raw string) ([][]string, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, nil
	}
	var groups [][]string
	for _, g := range strings.Split(raw, "|") {
		var members []string
		for _, h := range strings.Split(g, ",") {
			h = strings.TrimSpace(h)
			if h == "" {
				return nil, fmt.Errorf("empty host name in group %q", g)
			}
			members = append(members, h)
		}
		groups = append(groups, members)
	}
	return groups, nil
}

// parseLinkArgs pulls (from, to) off the front of the argument list and
// checks the remainder's arity range.
func parseLinkArgs(call *faultexpr.ActionCall, minRest, maxRest int) (simnet.Link, []string, error) {
	args := call.Args
	if len(args) < 2+minRest || len(args) > 2+maxRest {
		return simnet.Link{}, nil, fmt.Errorf("chaos: %s: want %s(from,to,...) with %d-%d trailing args",
			call, strings.ToLower(call.Name), minRest, maxRest)
	}
	if args[0] == "" || args[1] == "" {
		return simnet.Link{}, nil, fmt.Errorf("chaos: %s: empty link host", call)
	}
	return simnet.Link{From: args[0], To: args[1]}, args[2:], nil
}

func parseProb(call *faultexpr.ActionCall, s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("chaos: %s: bad probability %q (want [0, 1])", call, s)
	}
	return p, nil
}

func parseDur(call *faultexpr.ActionCall, s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("chaos: %s: bad duration %q: %v", call, s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("chaos: %s: negative duration %q", call, s)
	}
	return d, nil
}
