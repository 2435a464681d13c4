// Command replication runs a fault injection campaign against the
// primary-backup replicated counter: a crash fault kills the primary
// mid-run (testing failover) and a memory fault flips a bit in a backup's
// replica state (testing the fail-stop corruption detector). Measures
// report failover latency — the time between the primary's crash and a
// backup's promotion — computed from the global timeline with the §4.3.2
// instant() observation function.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	loki "repro"
	"repro/app"
	"repro/apps/replica"
	"repro/internal/faultexpr"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
)

var peers = []string{"r0", "r1", "r2"}

func buildStudy(experiments int) *loki.Study {
	var nodes []loki.NodeDef
	for _, nick := range peers {
		region := app.NewMemoryRegion(make([]byte, 8))
		in := replica.New(replica.Config{
			Peers:  peers,
			RunFor: 120 * time.Millisecond,
			Region: region,
		})
		var faults []loki.FaultSpec
		switch nick {
		case "r0":
			faults = []loki.FaultSpec{{
				Name: "killPrimary",
				Expr: faultexpr.MustParse("(r0:PRIMARY)"),
				Mode: loki.Once,
			}}
			in.On("killPrimary", app.DelayedCrashFault(25*time.Millisecond, 5*time.Millisecond, 7))
		case "r2":
			faults = []loki.FaultSpec{{
				Name: "bitflip",
				// Corrupt r2's replica state at the worst moment: while it
				// is a backup and the primary has just crashed. The trigger
				// rides the crash notification, so the injection lands a
				// full notification delay after the state entry — provable
				// by the analysis phase (unlike a trigger at BACKUP entry,
				// which loses the §3.2.2 race).
				Expr: faultexpr.MustParse("((r2:BACKUP) & (r0:CRASH))"),
				Mode: loki.Once,
			}}
			in.On("bitflip", app.MemoryFault(region, 11))
		}
		nodes = append(nodes, loki.NodeDef{
			Nickname: nick,
			Spec:     replica.SpecFor(nick, peers),
			Faults:   faults,
			App:      in,
		})
	}
	return &loki.Study{
		Name:        "failover",
		Nodes:       nodes,
		Experiments: experiments,
		Timeout:     10 * time.Second,
		Placement: []loki.NodeEntry{
			{Nickname: "r0", Host: "h1"},
			{Nickname: "r1", Host: "h2"},
			{Nickname: "r2", Host: "h3"},
		},
	}
}

func main() {
	c := &loki.Campaign{
		Name: "replication",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 3e6, DriftPPM: 65}},
			{Name: "h3", Clock: loki.ClockConfig{Offset: -4e6, DriftPPM: -20}},
		},
		Studies: []*loki.Study{buildStudy(6)},
		Sync:    loki.SyncConfig{Messages: 10, Transit: 25 * time.Microsecond},
		// Inject realistic notification latencies (§3.4.2's IPC/TCP costs)
		// so cross-host-triggered injections land clear of state entries.
		Runtime: loki.RuntimeConfig{
			LocalDelay:  30 * time.Microsecond,
			RemoteDelay: 300 * time.Microsecond,
		},
	}
	s, err := loki.Open(c)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	out := res.Campaign
	study := out.Study("failover")
	fmt.Printf("study %s: %d experiments, acceptance rate %.2f\n",
		study.Name, len(study.Records), study.AcceptanceRate())

	// Failover latency: instant r1 entered PRIMARY minus instant r0
	// entered CRASH, via a user observation over two predicates.
	crashInstant := observation.Instant{
		Dir: observation.Up, Class: observation.BothClasses, X: 1,
		Start: observation.StartExp(), End: observation.EndExp(),
	}
	failover, err := measure.NewStudyMeasure("failoverMs",
		measure.Triple{
			Select: measure.Default{},
			Pred:   predicate.MustParse("(r0, CRASH)"),
			Obs:    crashInstant,
		},
		measure.Triple{
			Select: measure.Cmp{Op: measure.OpGT, Value: 0},
			Pred:   predicate.MustParse("(r1, PRIMARY)"),
			Obs:    crashInstant, // instant r1 became primary
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	// The pipeline gives us the promotion instant; subtract the crash
	// instant per experiment to get the latency distribution.
	var latencies []float64
	crashOnly, _ := measure.NewStudyMeasure("crashAt",
		measure.Triple{
			Select: measure.Default{},
			Pred:   predicate.MustParse("(r0, CRASH)"),
			Obs:    crashInstant,
		},
	)
	for _, g := range study.AcceptedGlobals() {
		promoteAt, ok1 := failover.Apply(g)
		crashAt, ok2 := crashOnly.Apply(g)
		if ok1 && ok2 && promoteAt > crashAt && crashAt > 0 {
			latencies = append(latencies, promoteAt-crashAt)
		}
	}
	if len(latencies) == 0 {
		fmt.Println("no accepted experiments with a measurable failover")
		return
	}
	stats := loki.ComputeMoments(latencies)
	fmt.Printf("failover latency over %d accepted experiments: mean %.2f ms, sd %.2f ms\n",
		stats.N, stats.Mean(), stats.StdDev())
	if p95, err := stats.Percentile(0.95); err == nil && stats.StdDev() > 0 {
		fmt.Printf("approximate 95th percentile (Cornish-Fisher): %.2f ms\n", p95)
	}

	// Did the corrupted backup fail stop as designed?
	errorExit, _ := measure.NewStudyMeasure("r2FailStop",
		measure.Triple{
			Select: measure.Default{},
			Pred:   predicate.MustParse("(r2, EXIT)"),
			Obs:    observation.MustParse("count(U, B, 0, 100000)"),
		},
	)
	exits := errorExit.ApplyAll(study.AcceptedGlobals())
	failStops := 0
	for _, v := range exits {
		if v > 0 {
			failStops++
		}
	}
	fmt.Printf("r2 fail-stopped after corruption in %d/%d accepted experiments\n",
		failStops, len(exits))
}
