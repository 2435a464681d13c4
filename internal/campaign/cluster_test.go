package campaign

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/apps/election"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// electionCampaign builds a fresh election-under-partition campaign: the
// three-process leader election of Chapter 5 with a netsplit scenario —
// whichever process reaches LEAD gets its host partitioned from the rest,
// healing 30 ms later. Every member and worker testbed builds its own
// application instances.
func electionCampaign(t testing.TB, experiments int, kind string) *Campaign {
	t.Helper()
	peers := []string{"black", "green", "yellow"}
	hosts := []string{"h1", "h2", "h3"}
	var nodes []core.NodeDef
	var placement []spec.NodeEntry
	for i, nick := range peers {
		nodes = append(nodes, core.NodeDef{
			Nickname: nick,
			Spec:     election.SpecFor(nick, peers),
		})
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: hosts[i]})
	}
	st := &Study{
		Name:  "election",
		Nodes: nodes,
		NewApp: func(_ Point, nick string) (core.App, error) {
			return election.New(election.Config{
				Peers:  peers,
				RunFor: 80 * time.Millisecond,
				Seed:   7 + int64(slices.Index(peers, nick))*13,
			}), nil
		},
		Placement:   placement,
		Experiments: experiments,
		Timeout:     10 * time.Second,
		ChaosSeed:   7,
		Transport:   kind,
	}
	faults, err := ParseScenarioFaults(`
black bsplit (black:LEAD) once partition(h1|h2,h3) 30ms
green gsplit (green:LEAD) once partition(h2|h1,h3) 30ms
yellow ysplit (yellow:LEAD) once partition(h3|h1,h2) 30ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Scenario{Name: "netsplit", Faults: faults}).ApplyTo(st); err != nil {
		t.Fatal(err)
	}
	return &Campaign{
		Name: "election-transport",
		Hosts: []HostDef{
			{Name: "h1", Clock: vclock.ClockConfig{}},
			{Name: "h2", Clock: vclock.ClockConfig{Offset: 5e6, DriftPPM: 80}},
			{Name: "h3", Clock: vclock.ClockConfig{Offset: -2e6, DriftPPM: -45}},
		},
		Studies: []*Study{st},
		Sync:    SyncConfig{Messages: 8, Transit: 25 * time.Microsecond},
	}
}

// TestClusterVerdictParityUDP is the transport subsystem's acceptance
// test: the same election-under-partition study must produce the same
// accepted/rejected experiment verdicts on the in-process transport and
// on the UDP loopback multi-runtime transport, chaos actions included.
// Run under -race in CI.
func TestClusterVerdictParityUDP(t *testing.T) {
	const experiments = 3
	run := func(kind string) *StudyResult {
		res, err := Run(context.Background(), electionCampaign(t, experiments, kind))
		if err != nil {
			t.Fatalf("transport %q: %v", kind, err)
		}
		sr := res.Study("election")
		if sr == nil || len(sr.Records) != experiments {
			t.Fatalf("transport %q: bad study result %+v", kind, sr)
		}
		return sr
	}
	inproc := run("")
	udp := run("udp")

	for i := 0; i < experiments; i++ {
		ip, up := inproc.Records[i], udp.Records[i]
		if ip == nil || up == nil {
			t.Fatalf("experiment %d: nil record (inproc=%v udp=%v)", i, ip != nil, up != nil)
		}
		if !ip.Completed || !up.Completed {
			t.Errorf("experiment %d: completed inproc=%v udp=%v, want both", i, ip.Completed, up.Completed)
		}
		if ip.Accepted != up.Accepted {
			t.Errorf("experiment %d: verdicts differ: inproc=%v udp=%v", i, ip.Accepted, up.Accepted)
			for _, r := range []*ExperimentRecord{ip, up} {
				if r.AnalysisError != "" {
					t.Logf("  analysis error: %s", r.AnalysisError)
				}
				if r.Report != nil {
					for _, chk := range r.Report.Injections {
						t.Logf("  %s on %s: correct=%v (%s)", chk.Fault, chk.Machine, chk.Correct, chk.Reason)
					}
				}
			}
		}
	}
	// The netsplit study is built to be provably correct (the partition
	// fires on a self-atom): parity must not be vacuous all-rejected.
	if rate := inproc.AcceptanceRate(); rate != 1 {
		t.Errorf("in-process acceptance rate = %v, want 1", rate)
	}
	if rate := udp.AcceptanceRate(); rate != 1 {
		t.Errorf("udp acceptance rate = %v, want 1", rate)
	}
	// And the chaos action must actually have fired somewhere.
	fired := 0
	for _, r := range udp.Records {
		if r.Report != nil {
			fired += len(r.Report.Injections)
		}
	}
	if fired == 0 {
		t.Error("no partition injections recorded on the udp transport")
	}
}

// TestClusteredStepDeterminismTCP runs the deterministic three-step study
// over the TCP loopback cluster and requires the same totally-accepted
// outcome the in-process engines produce.
func TestClusteredStepDeterminismTCP(t *testing.T) {
	c := stepCampaign(t, 2, 1)
	c.Studies[0].Transport = "tcp"
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Study("steps")
	if len(sr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(sr.Records))
	}
	for i, rec := range sr.Records {
		if rec == nil || !rec.Completed {
			t.Fatalf("experiment %d incomplete: %+v", i, rec)
		}
		if !rec.Accepted {
			t.Errorf("experiment %d rejected: %s", i, rec.AnalysisError)
		}
		for _, nick := range []string{"alpha", "beta", "gamma"} {
			if rec.Outcomes[nick] != "exited" {
				t.Errorf("experiment %d: outcome[%s] = %q", i, nick, rec.Outcomes[nick])
			}
		}
	}
}

// TestClusteredInprocMultiEndpoint exercises the cluster protocol over
// the inproc transport's multi-endpoint form — the refactored bus carries
// cross-runtime traffic by direct call, no sockets involved.
func TestClusteredInprocMultiEndpoint(t *testing.T) {
	c := stepCampaign(t, 2, 1)
	sr, err := runClustered(context.Background(), c, c.Studies[0], transport.KindNameInproc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(sr.Records))
	}
	for i, rec := range sr.Records {
		if rec == nil || !rec.Completed || !rec.Accepted {
			t.Fatalf("experiment %d: %+v", i, rec)
		}
	}
}

// TestClusterBadTransportKind: an unknown transport name must fail the
// study cleanly, not hang the protocol.
func TestClusterBadTransportKind(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Studies[0].Transport = "pigeon"
	if _, err := Run(context.Background(), c); err == nil {
		t.Fatal("unknown transport kind accepted")
	}
}

// TestClusterUnownedHostRejected: a campaign host absent from the
// ownership table must fail member construction — otherwise its nodes
// would silently never run on any endpoint and the experiment could be
// accepted with that machine's injections unchecked.
func TestClusterUnownedHostRejected(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	net := transport.NewInprocNet()
	// h3 is deliberately missing from the ownership table.
	ep, err := net.Endpoint(transport.Topology{
		Local: "a",
		Peers: map[string]string{"a": "", "b": ""},
		Hosts: map[string]string{"h1": "a", "h2": "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := NewMember(c, c.Studies[0], ep); err == nil {
		t.Fatal("topology with an unowned campaign host accepted")
	}
}

// TestClusteredCancelReturnsCtxErr: cancelling a clustered study mid-run
// quits the protocol, and the study surfaces ctx.Err() exactly as the
// in-process pool does — not the protocol's "member quit" text.
func TestClusteredCancelReturnsCtxErr(t *testing.T) {
	c := stepCampaign(t, 50, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Obs = &obs.Sink{}
	c.Obs.Watch(func(ev obs.Event) {
		if ev.Kind == obs.EventExperiment {
			cancel()
		}
	})
	sr, err := runClustered(ctx, c, c.Studies[0], transport.KindNameInproc, nil)
	if !errors.Is(err, context.Canceled) || sr != nil {
		t.Fatalf("cancelled clustered study returned (%v, %v), want context.Canceled", sr, err)
	}
}
