// The partition-heavy election matrix the observability tests and benches
// share. Matrix-engine throughput itself is a bench/ ledger row
// (journaled-chaos): bash bench/run.sh.
package loki_test

import (
	"fmt"
	"testing"
	"time"

	loki "repro"
	"repro/apps/election"
)

// chaosMatrix builds a partition-heavy election matrix: every machine
// carries a partition-on-LEAD action fault (its host is split off for
// 10 ms, then healed), expanded over two seeds.
func chaosMatrix(t testing.TB, experiments int) *loki.Matrix {
	peers := []string{"black", "green", "yellow"}
	hosts := map[string]string{"black": "h1", "green": "h2", "yellow": "h3"}
	doc := ""
	for _, nick := range peers {
		doc += fmt.Sprintf("%s %ssplit (%s:LEAD) once partition(%s) 10ms\n",
			nick, nick[:1], nick, hosts[nick])
	}
	faults, err := loki.ParseScenarioFaults(doc)
	if err != nil {
		t.Fatal(err)
	}
	return &loki.Matrix{
		Name:      "partition-heavy",
		Scenarios: []loki.Scenario{{Name: "netsplit", Faults: faults}},
		Seeds:     []int64{1, 2},
		Build: func(p loki.MatrixPoint) (*loki.Study, error) {
			var nodes []loki.NodeDef
			for i, nick := range peers {
				in := election.New(election.Config{
					Peers:  peers,
					RunFor: 25 * time.Millisecond,
					Seed:   p.Seed + int64(i),
				})
				nodes = append(nodes, loki.NodeDef{
					Nickname: nick,
					Spec:     election.SpecFor(nick, peers),
					App:      in,
				})
			}
			return &loki.Study{
				Nodes:       nodes,
				Experiments: experiments,
				Timeout:     5 * time.Second,
				Placement: []loki.NodeEntry{
					{Nickname: "black", Host: "h1"},
					{Nickname: "green", Host: "h2"},
					{Nickname: "yellow", Host: "h3"},
				},
			}, nil
		},
	}
}

func chaosCampaign(workers int) *loki.Campaign {
	return &loki.Campaign{
		Name: "chaos-bench",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 4e6, DriftPPM: 60}},
			{Name: "h3", Clock: loki.ClockConfig{Offset: -2e6, DriftPPM: -35}},
		},
		Workers: workers,
		Sync:    loki.SyncConfig{Messages: 4, Transit: 20 * time.Microsecond, Spacing: time.Millisecond},
	}
}
