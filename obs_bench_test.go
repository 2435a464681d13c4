// Benchmark for fleet tracing's overhead on a clustered study. (The
// in-process observer overhead is the bench/ ledger's
// obs.metrics_overhead_pct: bash bench/run.sh.)
//
//	go test -run xxx -bench=BenchmarkClusteredTracingOverhead -benchmem
package loki_test

import (
	"context"
	"testing"
	"time"

	loki "repro"
	"repro/apps/election"
)

// clusteredBenchCampaign builds a plain three-peer election study for the
// UDP loopback cluster — no faults, so the measured cost is protocol and
// observability machinery, not chaos work.
func clusteredBenchCampaign(experiments int) *loki.Campaign {
	peers := []string{"black", "green", "yellow"}
	hosts := []string{"h1", "h2", "h3"}
	var nodes []loki.NodeDef
	var placement []loki.NodeEntry
	for i, nick := range peers {
		in := election.New(election.Config{Peers: peers, RunFor: 20 * time.Millisecond, Seed: 7 + int64(i)})
		nodes = append(nodes, loki.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, peers), App: in})
		placement = append(placement, loki.NodeEntry{Nickname: nick, Host: hosts[i]})
	}
	return &loki.Campaign{
		Name:  "clustered-obs-bench",
		Hosts: []loki.HostDef{{Name: "h1"}, {Name: "h2"}, {Name: "h3"}},
		Studies: []*loki.Study{{
			Name: "election", Nodes: nodes, Placement: placement,
			Experiments: experiments, Timeout: 10 * time.Second,
			Transport: loki.TransportUDP,
		}},
		Sync: loki.SyncConfig{Messages: 4, Transit: 25 * time.Microsecond},
	}
}

// runClusteredObsBench runs the study over the 3-endpoint UDP loopback
// cluster, with or without per-experiment tracing (member lanes pulled
// and merged), and returns the experiment count.
func runClusteredObsBench(tb testing.TB, experiments int, traced bool, dir string) int {
	tb.Helper()
	var opts []loki.Option
	if traced {
		opts = []loki.Option{loki.WithMetrics(), loki.WithTracing(dir)}
	}
	s, err := loki.Open(clusteredBenchCampaign(experiments), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	n := len(res.Campaign.Study("election").Records)
	if n != experiments {
		tb.Fatalf("records = %d, want %d", n, experiments)
	}
	return n
}

// BenchmarkClusteredTracingOverhead measures UDP loopback cluster
// throughput with tracing off (the trace-stream protocol idle: one flag
// on the reset frame, no pulls) and on (member lanes recorded, pulled,
// offset-aligned, merged, written).
func BenchmarkClusteredTracingOverhead(b *testing.B) {
	const experiments = 2
	for _, traced := range []bool{false, true} {
		name := "tracing=off"
		if traced {
			name = "tracing=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			dir := b.TempDir()
			start := time.Now()
			total := 0
			for i := 0; i < b.N; i++ {
				total += runClusteredObsBench(b, experiments, traced, dir)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(total)/elapsed, "experiments/sec")
			}
		})
	}
}
