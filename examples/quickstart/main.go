// Command quickstart is the smallest complete Loki session: two nodes on
// two (virtual) hosts, one global-state-triggered fault, one experiment,
// followed by the analysis phase and a printed verdict.
//
// The fault f1 must fire when machine "worker" is in state WORKING *and*
// machine "monitor" is in state WATCHING — a condition neither node can
// decide alone, which is exactly what Loki's partial view of global state
// is for.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	loki "repro"
)

const workerSpec = `
global_state_list
  BEGIN
  IDLE
  WORKING
  DONE
  CRASH
  EXIT
end_global_state_list
event_list
  start_work
  finish
end_event_list
state IDLE notify monitor
  start_work WORKING
state WORKING notify monitor
  finish DONE
state DONE notify monitor
state CRASH notify monitor
state EXIT notify monitor
`

const monitorSpec = `
global_state_list
  BEGIN
  BOOT
  WATCHING
  CRASH
  EXIT
end_global_state_list
event_list
  ready
end_event_list
state BOOT notify worker
  ready WATCHING
state WATCHING notify worker
state CRASH notify worker
state EXIT notify worker
`

func main() {
	wSpec, err := loki.ParseStateMachine(workerSpec)
	if err != nil {
		log.Fatal(err)
	}
	mSpec, err := loki.ParseStateMachine(monitorSpec)
	if err != nil {
		log.Fatal(err)
	}
	faults, err := loki.ParseFaultSpecs("f1 ((worker:WORKING) & (monitor:WATCHING)) once\n")
	if err != nil {
		log.Fatal(err)
	}

	worker := loki.Instrument(func(h *loki.Handle) {
		h.NotifyEvent("IDLE")
		h.Sleep(5 * time.Millisecond)
		h.NotifyEvent("start_work")
		h.Sleep(30 * time.Millisecond) // long residence: injection will be provable
		h.NotifyEvent("finish")
		h.Sleep(5 * time.Millisecond)
	}).On("f1", loki.NoteFault())

	monitor := loki.Instrument(func(h *loki.Handle) {
		h.NotifyEvent("BOOT")
		h.Sleep(2 * time.Millisecond)
		h.NotifyEvent("ready")
		h.Sleep(50 * time.Millisecond)
	})

	c := &loki.Campaign{
		Name: "quickstart",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			// h2's clock is 2 ms ahead and drifts 50 ppm fast — hidden
			// from the runtime, recovered by the analysis phase.
			{Name: "h2", Clock: loki.ClockConfig{Offset: 2e6, DriftPPM: 50}},
		},
		Studies: []*loki.Study{{
			Name: "demo",
			Nodes: []loki.NodeDef{
				{Nickname: "worker", Spec: wSpec, Faults: faults, App: worker},
				{Nickname: "monitor", Spec: mSpec, App: monitor},
			},
			Placement: []loki.NodeEntry{
				{Nickname: "worker", Host: "h1"},
				{Nickname: "monitor", Host: "h2"},
			},
			Experiments: 3,
			Timeout:     5 * time.Second,
		}},
		Sync: loki.SyncConfig{Messages: 10, Transit: 30 * time.Microsecond},
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
	study := out.Study("demo")
	fmt.Printf("campaign %q: %d experiments, acceptance rate %.2f\n",
		out.Name, len(study.Records), study.AcceptanceRate())
	for _, rec := range study.Records {
		fmt.Printf("\nexperiment %d: completed=%v accepted=%v\n", rec.Index, rec.Completed, rec.Accepted)
		for host, b := range rec.Bounds {
			fmt.Printf("  clock %s: alpha in [%.1f, %.1f] µs, beta in [%.9f, %.9f]\n",
				host, b.AlphaLo/1000, b.AlphaHi/1000, b.BetaLo, b.BetaHi)
		}
		for _, chk := range rec.Report.Injections {
			fmt.Printf("  injection %s on %s at %v: correct=%v (%s)\n",
				chk.Fault, chk.Machine, chk.At, chk.Correct, chk.Reason)
		}
	}

	// Measure: how long was the worker WORKING, across accepted runs?
	pred, _ := loki.ParsePredicate("(worker, WORKING)")
	obs, _ := loki.ParseObservation("total_duration(T, START_EXP, END_EXP)")
	sel, _ := loki.ParseSelector("default")
	m, err := loki.NewStudyMeasure("workTime", loki.Triple{Select: sel, Pred: pred, Obs: obs})
	if err != nil {
		log.Fatal(err)
	}
	values := m.ApplyAll(study.AcceptedGlobals())
	if len(values) > 0 {
		stats := loki.ComputeMoments(values)
		fmt.Printf("\nWORKING duration over %d accepted experiments: mean %.2f ms, sd %.3f ms\n",
			len(values), stats.Mean(), stats.StdDev())
	}
}
