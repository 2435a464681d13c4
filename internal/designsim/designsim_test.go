package designsim

import (
	"strings"
	"testing"
)

func TestTableHasSixRows(t *testing.T) {
	rows := Table(ThesisCosts(), Scenario{Hosts: 3, NodesPerHost: 4})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Design.String()+"/"+r.Mode.String()] = true
	}
	if len(seen) != 6 {
		t.Errorf("design points = %v", seen)
	}
}

// TestThesisConclusions verifies the qualitative ordering that drove the
// thesis's §3.4.2 choice.
func TestThesisConclusions(t *testing.T) {
	c := ThesisCosts()
	s := Scenario{Hosts: 4, NodesPerHost: 5}
	chosen := Chosen(c, s)
	centralDaemon := Evaluate(Centralized, ViaDaemon, c, s)
	partialDirect := Evaluate(PartiallyDistributed, Direct, c, s)
	fullDaemon := Evaluate(FullyDistributed, ViaDaemon, c, s)

	// Same-host notifications via daemons use IPC and beat any TCP path.
	if chosen.SameHostNotify >= partialDirect.SameHostNotify {
		t.Errorf("same-host via daemon (%v) not faster than direct TCP (%v)",
			chosen.SameHostNotify, partialDirect.SameHostNotify)
	}
	// Cross-host via daemon is only modestly slower than direct: the
	// thesis's 2*IPC+TCP vs TCP argument (190 µs vs 150 µs).
	if chosen.CrossHostNotify >= 2*partialDirect.CrossHostNotify {
		t.Errorf("cross-host via daemon (%v) dramatically slower than direct (%v)",
			chosen.CrossHostNotify, partialDirect.CrossHostNotify)
	}
	// Entry via local daemon is far cheaper than connecting to all nodes.
	if chosen.Entry*10 > partialDirect.Entry {
		t.Errorf("entry via daemon (%v) not ~an order cheaper than direct (%v)",
			chosen.Entry, partialDirect.Entry)
	}
	// Multicast via daemons beats direct (one TCP per host, not per node).
	if chosen.MulticastAll >= partialDirect.MulticastAll {
		t.Errorf("multicast via daemon (%v) not cheaper than direct (%v)",
			chosen.MulticastAll, partialDirect.MulticastAll)
	}
	// Centralized pays double TCP everywhere.
	if centralDaemon.SameHostNotify <= chosen.SameHostNotify {
		t.Errorf("centralized same-host (%v) should be slower than chosen (%v)",
			centralDaemon.SameHostNotify, chosen.SameHostNotify)
	}
	// Only the fully distributed design forbids cross-host restart; the
	// chosen design supports it.
	if !chosen.CrossHostRestart || fullDaemon.CrossHostRestart {
		t.Error("cross-host restart capabilities wrong")
	}
	// The chosen design is the only one without a bottleneck note.
	if chosen.Bottleneck != "" {
		t.Errorf("chosen design has bottleneck %q", chosen.Bottleneck)
	}
}

func TestMulticastScalesPerHostNotPerNode(t *testing.T) {
	c := ThesisCosts()
	small := Evaluate(PartiallyDistributed, ViaDaemon, c, Scenario{Hosts: 2, NodesPerHost: 2})
	big := Evaluate(PartiallyDistributed, ViaDaemon, c, Scenario{Hosts: 2, NodesPerHost: 20})
	// Going 2->20 nodes/host adds 36 recipients; via-daemon each extra
	// recipient costs one IPC (20 µs), not one TCP (150 µs): only one TCP
	// per remote host is ever paid (§3.6.1).
	addedNodes := int64(big.MulticastAll-small.MulticastAll) / 36
	if addedNodes != int64(c.IPC) {
		t.Errorf("per-added-recipient multicast cost = %v, want one IPC (%v)", addedNodes, c.IPC)
	}
	direct := Evaluate(PartiallyDistributed, Direct, c, Scenario{Hosts: 2, NodesPerHost: 20})
	if direct.MulticastAll <= big.MulticastAll {
		t.Errorf("direct multicast (%v) should cost more than via-daemon (%v)", direct.MulticastAll, big.MulticastAll)
	}
}

func TestFormatTable(t *testing.T) {
	s := Scenario{Hosts: 3, NodesPerHost: 4}
	out := Format(Table(ThesisCosts(), s), s)
	for _, want := range []string{"centralized", "partially distributed", "fully distributed", "via-daemon", "direct"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestStringers(t *testing.T) {
	if Centralized.String() == "" || Design(9).String() == "" {
		t.Error("design strings")
	}
	if Direct.String() == "" || CommMode(9).String() == "" {
		t.Error("mode strings")
	}
}
