package main

import (
	"fmt"
	"math/rand"
	"time"

	loki "repro"
	"repro/internal/config"
)

// The four workloads. The reason each exists is in BENCHMARK.json and
// README.md; this file only turns a seed into campaign files.
const (
	wlVirtualElection = "virtual-election"
	wlJournaledChaos  = "journaled-chaos"
	wlClusterUDP      = "cluster-udp"
	wlResumeReport    = "resume-report"
)

// Default experiment counts (-scale 1). They are part of the benchmark's
// definition: per-experiment figures amortize one runtime build per worker
// over this many experiments, so runs at another -scale are not comparable.
const (
	electionStudies    = 16 // x 500 experiments = 8000
	electionPerStudy   = 500
	clusterExperiments = 60
	chaosSeeds         = 64 // x 4 scenarios x 2 latencies x 4 experiments = 2048
	chaosPerPoint      = 4
)

func dur(d time.Duration) config.Duration { return config.Duration(d) }

// scaled shrinks a default count by -scale, never below 1.
func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// hosts is the fixed 3-host testbed of thesis ch. 5: h1 keeps the clean
// reference clock, h2 and h3 get a hidden offset within ±10 ms and a drift
// within ±100 ppm drawn from the seed — the same ranges the program's own
// seed-derived hosts use, but written out so the file is self-contained.
func hosts(seed int64) []config.Host {
	rng := rand.New(rand.NewSource(seed))
	out := []config.Host{{Name: "h1"}}
	for _, name := range []string{"h2", "h3"} {
		out = append(out, config.Host{
			Name:     name,
			OffsetNs: rng.Int63n(20e6) - 10e6,
			DriftPPM: float64(rng.Intn(200) - 100),
		})
	}
	return out
}

func electionNodes() []config.Node {
	return []config.Node{
		{Name: "black", Host: "h1"},
		{Name: "green", Host: "h2"},
		{Name: "yellow", Host: "h3"},
	}
}

// electionFile is the ch. 5 election study: black crashes 8 ms after it
// first leads. virtual selects the simulated clock with one worker (the
// CPU-bound engine path); otherwise the study runs in real time and the
// harness puts it on the UDP loopback cluster.
//
// Every experiment of a study replays the study's seed, so one study is
// one election trajectory, and how many notifications, timers and
// allocations a trajectory takes differs by a few percent from seed to
// seed. studies consecutive seeds are therefore run side by side: the
// per-experiment figures average over that many trajectories and move
// with the program, not with the seed.
func electionFile(name string, seed int64, studies, perStudy int, virtual bool) *loki.CampaignFile {
	f := &loki.CampaignFile{
		Name:        name,
		Seed:        seed,
		Hosts:       hosts(seed),
		Workers:     1,
		VirtualTime: virtual,
		Sync:        &config.Sync{Messages: 4, Spacing: dur(time.Millisecond), Transit: dur(20 * time.Microsecond)},
	}
	for i := 0; i < studies; i++ {
		f.Studies = append(f.Studies, config.Study{
			Name:        fmt.Sprintf("election-%02d", i),
			App:         "election",
			Nodes:       electionNodes(),
			Faults:      []string{"black bfault1 (black:LEAD) once"},
			Experiments: perStudy,
			Seed:        seed + int64(i),
			RunFor:      dur(25 * time.Millisecond),
			Dormancy:    dur(8 * time.Millisecond),
			Timeout:     dur(10 * time.Second),
		})
	}
	return f
}

// chaosScenarios is the examples/chaos scenario axis.
func chaosScenarios() []config.Scenario {
	return []config.Scenario{
		{Name: "baseline"},
		{Name: "netsplit", Faults: []string{
			"black bsplit (black:LEAD) once partition(h1|h2,h3) 40ms",
			"green gsplit (green:LEAD) once partition(h2|h1,h3) 40ms",
			"yellow ysplit (yellow:LEAD) once partition(h3|h1,h2) 40ms",
		}},
		{Name: "flaky", Faults: []string{"black bflaky (black:ELECT) once drop(*,*,0.25) 30ms"}},
		{Name: "crashrestart", Faults: []string{"green gcrash (green:LEAD) once crashrestart(h2,15ms)"}},
	}
}

// chaosFile is the examples/chaos matrix widened to nseeds consecutive
// seeds: {4 scenarios x 2 latencies x nseeds} points of 4 experiments.
func chaosFile(seed int64, nseeds int) *loki.CampaignFile {
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return &loki.CampaignFile{
		Name:        "bench-chaos",
		Seed:        seed,
		Hosts:       hosts(seed),
		Workers:     2,
		VirtualTime: true,
		Sync:        &config.Sync{Messages: 10, Transit: dur(25 * time.Microsecond)},
		Matrix: &config.Matrix{
			Name:      "bench-chaos",
			Scenarios: chaosScenarios(),
			Latencies: []config.Latency{
				{Name: "lan", Local: dur(20 * time.Microsecond), Remote: dur(150 * time.Microsecond)},
				{Name: "slow", Local: dur(40 * time.Microsecond), Remote: dur(2 * time.Millisecond)},
			},
			Seeds: seeds,
			Study: chaosTemplate(chaosPerPoint),
		},
	}
}

func chaosTemplate(experiments int) *config.Study {
	return &config.Study{
		App:         "election",
		Nodes:       electionNodes(),
		Experiments: experiments,
		RunFor:      dur(100 * time.Millisecond),
		Timeout:     dur(10 * time.Second),
	}
}

// chaosFixtureFile is one point of the chaos matrix written as a plain
// study, because Session.RunOne — the only public call that returns an
// experiment's stamps and local timelines — refuses matrix campaigns. It
// takes the crashrestart scenario (a chaos action, a crash and a restart:
// the longest timelines of the matrix) at the seed's first point. The
// matrix's latency profile has no study-file form, so the fixture runs
// with the runtime's default notification delays.
func chaosFixtureFile(seed int64) *loki.CampaignFile {
	f := chaosFile(seed, 1)
	st := *f.Matrix.Study
	st.Name = "crashrestart"
	st.Seed = seed
	st.Experiments = 1
	st.Faults = chaosScenarios()[3].Faults
	f.Matrix = nil
	f.Workers = 1
	f.Studies = []config.Study{st}
	return f
}
