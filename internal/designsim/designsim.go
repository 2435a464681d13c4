// Package designsim reproduces the thesis's runtime-architecture design
// comparison (§3.4): centralized, partially distributed, and fully
// distributed daemon organizations, each with direct state-machine
// communication or communication through the daemons.
//
// The thesis compares the designs qualitatively, anchored by two measured
// costs on its testbed: ~20 µs for same-host IPC and ~150 µs for TCP
// (§3.4.2). This package turns that argument into a quantitative model —
// per-notification latency, multicast cost, and node entry/exit cost as
// functions of system size — plus the qualitative capabilities that drove
// the final choice (the partially distributed design with communication
// through daemons). The model is closed-form and stays that way: five of
// the six designs were never implemented, here or in the thesis, so there
// is nothing to measure them on.
package designsim

import (
	"fmt"
	"strings"

	"repro/internal/vclock"
)

// Design is one of the §3.4.1 daemon organizations.
type Design int

// Designs.
const (
	Centralized Design = iota + 1
	PartiallyDistributed
	FullyDistributed
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case Centralized:
		return "centralized"
	case PartiallyDistributed:
		return "partially distributed"
	case FullyDistributed:
		return "fully distributed"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// CommMode says whether state machines talk directly or via daemons.
type CommMode int

// Communication modes.
const (
	Direct CommMode = iota + 1
	ViaDaemon
)

// String implements fmt.Stringer.
func (m CommMode) String() string {
	switch m {
	case Direct:
		return "direct"
	case ViaDaemon:
		return "via-daemon"
	default:
		return fmt.Sprintf("CommMode(%d)", int(m))
	}
}

// Costs are the §3.4.2 cost anchors.
type Costs struct {
	// IPC is one same-host hop (shared memory); thesis: ~20 µs.
	IPC vclock.Ticks
	// TCP is one host-to-host hop; thesis: ~150 µs.
	TCP vclock.Ticks
	// Connect is the cost of establishing one TCP connection (entry/exit
	// bookkeeping); modeled as ~3x TCP.
	Connect vclock.Ticks
}

// ThesisCosts returns the §3.4.2 numbers.
func ThesisCosts() Costs {
	return Costs{IPC: 20_000, TCP: 150_000, Connect: 450_000}
}

// Scenario sizes the modeled system.
type Scenario struct {
	Hosts        int // number of hosts
	NodesPerHost int // state machines per host
}

// Total nodes in the scenario.
func (s Scenario) Total() int { return s.Hosts * s.NodesPerHost }

// Row is one design point's predicted behaviour.
type Row struct {
	Design Design
	Mode   CommMode
	// SameHostNotify is the latency of one notification between machines
	// on the same host.
	SameHostNotify vclock.Ticks
	// CrossHostNotify is the latency between machines on different hosts.
	CrossHostNotify vclock.Ticks
	// MulticastAll is the sender-side cost of notifying every other
	// machine in the system once.
	MulticastAll vclock.Ticks
	// Entry is the connection cost paid when a node enters (or re-enters)
	// the system.
	Entry vclock.Ticks
	// DynamicHosts: new hosts can join at runtime.
	DynamicHosts bool
	// DynamicNodes: nodes can enter/exit at runtime.
	DynamicNodes bool
	// CrossHostRestart: a crashed node can restart on a different host.
	CrossHostRestart bool
	// Bottleneck names the scaling concern, if any.
	Bottleneck string
}

// Evaluate computes the §3.4.2 comparison for one design point.
//
// Path models:
//   - Centralized/direct: every notification is one TCP hop (even same
//     host, as in the original runtime, §3.3); entry connects to all nodes.
//   - Centralized/via-daemon: two TCP hops through the global daemon;
//     entry connects once to the global daemon.
//   - Partially distributed/direct: one TCP hop (same-host direct links
//     still ran over TCP in the original runtime); entry connects to all.
//   - Partially distributed/via-daemon: IPC + TCP + IPC across hosts,
//     IPC + IPC on one host; multicast sends one TCP per remote host plus
//     one IPC per local recipient (§3.6.1: "only one notification per
//     host"); entry is one IPC connection to the local daemon.
//   - Fully distributed: as partially distributed, with a per-node daemon
//     (one more IPC hop on the daemon path) and a static node set.
func Evaluate(d Design, m CommMode, c Costs, s Scenario) Row {
	r := Row{Design: d, Mode: m}
	n := s.Total()
	remoteNodes := (s.Hosts - 1) * s.NodesPerHost
	localPeers := s.NodesPerHost - 1

	switch {
	case d == Centralized && m == Direct:
		r.SameHostNotify = c.TCP
		r.CrossHostNotify = c.TCP
		r.MulticastAll = vclock.Ticks(n-1) * c.TCP
		r.Entry = vclock.Ticks(n-1)*c.Connect + c.Connect // peers + daemon
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = true, true, true
		r.Bottleneck = "entry/exit touches every node"
	case d == Centralized && m == ViaDaemon:
		r.SameHostNotify = 2 * c.TCP
		r.CrossHostNotify = 2 * c.TCP
		r.MulticastAll = c.TCP + vclock.Ticks(n-1)*c.TCP // in + one out per recipient
		r.Entry = c.Connect
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = true, true, true
		r.Bottleneck = "global daemon serializes all notifications"
	case d == PartiallyDistributed && m == Direct:
		r.SameHostNotify = c.TCP
		r.CrossHostNotify = c.TCP
		r.MulticastAll = vclock.Ticks(n-1) * c.TCP
		r.Entry = vclock.Ticks(n-1) * c.Connect
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = false, true, true
		r.Bottleneck = "entry/exit touches every node"
	case d == PartiallyDistributed && m == ViaDaemon:
		r.SameHostNotify = 2 * c.IPC
		r.CrossHostNotify = 2*c.IPC + c.TCP
		// One IPC to my daemon; one TCP per remote host; one IPC per
		// recipient on each receiving host (§3.6.1).
		r.MulticastAll = c.IPC + vclock.Ticks(s.Hosts-1)*c.TCP +
			vclock.Ticks(remoteNodes)*c.IPC + vclock.Ticks(localPeers)*c.IPC
		r.Entry = c.Connect / 3 // one local IPC rendezvous, no TCP setup
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = false, true, true
		r.Bottleneck = ""
	case d == FullyDistributed && m == Direct:
		r.SameHostNotify = c.TCP
		r.CrossHostNotify = c.TCP
		r.MulticastAll = vclock.Ticks(n-1) * c.TCP
		r.Entry = vclock.Ticks(n-1) * c.Connect
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = false, false, false
		r.Bottleneck = "static node set"
	default: // FullyDistributed, ViaDaemon
		r.SameHostNotify = 2*c.IPC + 2*c.IPC // node->daemon, daemon->daemon (IPC), daemon->node
		r.CrossHostNotify = 2*c.IPC + c.TCP
		r.MulticastAll = c.IPC + vclock.Ticks(s.Hosts-1)*c.TCP +
			vclock.Ticks(remoteNodes)*c.IPC + vclock.Ticks(localPeers)*2*c.IPC
		r.Entry = c.Connect / 3
		r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart = false, false, false
		r.Bottleneck = "static node set"
	}
	return r
}

// Table evaluates all six design points.
func Table(c Costs, s Scenario) []Row {
	var rows []Row
	for _, d := range []Design{Centralized, PartiallyDistributed, FullyDistributed} {
		for _, m := range []CommMode{Direct, ViaDaemon} {
			rows = append(rows, Evaluate(d, m, c, s))
		}
	}
	return rows
}

// Chosen returns the thesis's final choice (§3.4.2): the partially
// distributed design with all communication through daemons.
func Chosen(c Costs, s Scenario) Row {
	return Evaluate(PartiallyDistributed, ViaDaemon, c, s)
}

// Format renders rows as the §3.4.2 comparison table.
func Format(rows []Row, s Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design comparison (%d hosts x %d nodes/host; IPC/TCP costs per §3.4.2)\n", s.Hosts, s.NodesPerHost)
	fmt.Fprintf(&b, "%-22s %-11s %10s %10s %12s %10s  %-8s %-8s %-8s %s\n",
		"design", "comm", "same-host", "cross-host", "multicast", "entry",
		"dynHost", "dynNode", "restart", "bottleneck")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-11s %8.0fµs %8.0fµs %10.0fµs %8.0fµs  %-8v %-8v %-8v %s\n",
			r.Design, r.Mode,
			float64(r.SameHostNotify)/1000, float64(r.CrossHostNotify)/1000,
			float64(r.MulticastAll)/1000, float64(r.Entry)/1000,
			r.DynamicHosts, r.DynamicNodes, r.CrossHostRestart, r.Bottleneck)
	}
	return b.String()
}
