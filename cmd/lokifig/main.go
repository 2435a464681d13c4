// Command lokifig regenerates the thesis's quantitative figures and tables
// (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	lokifig -fig 3.2   correct-injection probability, 10 ms timeslice
//	lokifig -fig 3.3   correct-injection probability, 1 ms timeslice
//	lokifig -fig 3.4   §3.4.2 runtime design comparison table
//	lokifig -fig 4.2   predicate value timelines and observation values
//	lokifig -fig all   everything
//
// Figures 3.2/3.3 are measured, not modelled: every trial is one experiment
// of the campaign pipeline under virtual time (internal/injectsim).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/designsim"
	"repro/internal/injectsim"
	"repro/internal/observation"
	"repro/internal/predicate"
	"repro/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lokifig: ")
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: 3.2, 3.3, 3.4, 4.2, or all")
		trials = flag.Int("trials", 400, "experiments per residence (figs 3.2/3.3)")
		seed   = flag.Int64("seed", 1, "seed of the notification-delay draws (figs 3.2/3.3)")
	)
	flag.Parse()

	switch *fig {
	case "3.2":
		fig32(*trials, *seed)
	case "3.3":
		fig33(*trials, *seed)
	case "3.4":
		fig34()
	case "4.2":
		fig42()
	case "all":
		fig32(*trials, *seed)
		fmt.Println()
		fig33(*trials, *seed)
		fmt.Println()
		fig34()
		fmt.Println()
		fig42()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func sweep(title string, cfg injectsim.Config, residences []float64) {
	fmt.Println(title)
	fmt.Println("  time-in-state    P(correct injection)  [truly in state]")
	points, err := injectsim.Sweep(cfg, residences)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %9.2f ms  %6.4f  [%6.4f]  %s\n", p.ResidenceMs, p.PCorrect, p.PInState,
			strings.Repeat("#", int(p.PCorrect*40)))
	}
	fmt.Printf("  95%% reliability crossover: %.2f ms (timeslice %.0f ms)\n",
		injectsim.CrossoverMs(points, 0.95), float64(cfg.Timeslice)/1e6)
}

func fig32(trials int, seed int64) {
	cfg := injectsim.Fig32Config()
	cfg.Trials, cfg.Seed = trials, seed
	sweep("Figure 3.2 — correct fault injection probability (10 ms Linux timeslice)", cfg, injectsim.Fig32Residences())
}

func fig33(trials int, seed int64) {
	cfg := injectsim.Fig33Config()
	cfg.Trials, cfg.Seed = trials, seed
	sweep("Figure 3.3 — correct fault injection probability (1 ms Linux timeslice)", cfg, injectsim.Fig33Residences())
}

func fig34() {
	fmt.Println("Section 3.4.2 — runtime architecture design comparison")
	scen := designsim.Scenario{Hosts: 4, NodesPerHost: 4}
	fmt.Print(designsim.Format(designsim.Table(designsim.ThesisCosts(), scen), scen))
}

func fig42() {
	fmt.Println("Figure 4.2 — predicate value timelines over the §4.3.1 global timeline")
	g := predicate.Fig42Timeline()
	fmt.Printf("  %-14s %-8s %-8s %6s\n", "State Machine", "State", "Event", "ms")
	for _, e := range g.Events {
		if e.Kind != timeline.StateChange {
			continue
		}
		fmt.Printf("  %-14s %-8s %-8s %6.1f\n", e.Machine, e.State, e.Event, e.Ref.Mid().Millis())
	}
	predicates := []string{
		"((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))",
		"((StateMachine3, State3, Event3, 10 < t < 30) | (StateMachine3, State4, Event4, 20 < t < 40))",
		"((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))",
	}
	observations := []string{
		"count(U, B, 10, 35)",
		"duration(T, 2, 10, 40)",
		"instant(U, I, 2, 0, 50)",
	}
	for i, src := range predicates {
		pvt := predicate.Evaluate(predicate.MustParse(src), g)
		fmt.Printf("\n  predicate %d: %s\n    %v\n", i+1, src, pvt)
		for _, osrc := range observations {
			f := observation.MustParse(osrc)
			fmt.Printf("    %-26s = %g\n", osrc, f.Apply(pvt, observation.Env{}))
		}
	}
}
