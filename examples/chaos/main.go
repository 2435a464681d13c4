// Command chaos runs the election application under the chaos subsystem's
// scenario matrix, driven entirely by the declarative campaign file
// checked in next to it: campaign.json fans one configuration out into
// {scenarios × latency profiles × seeds} studies, every experiment passing
// through the full pipeline (sync mini-phases, runtime phase, analysis).
//
// The scenarios exercise the built-in fault actions from fault
// specification entries — no application callback involved:
//
//   - baseline: no chaos, the control group
//   - netsplit: whichever process reaches LEAD gets its host partitioned
//     from the rest for 40 ms (the followers must detect the silence and
//     re-elect), then the split heals
//   - flaky: once the first election starts, every link drops 25% of
//     application messages for 30 ms
//   - crashrestart: green's host crashes when green leads; 15 ms later the
//     host reboots and green restarts, rejoining as a follower (which
//     process wins the first election follows the seed: of the matrix's two
//     seeds, green leads under 3 and black under 1)
//
// The program runs the matrix twice with identical seeds and verifies the
// accepted experiment sets match — the determinism the analysis pipeline
// depends on — then estimates recovery coverage for the crashrestart
// scenario: of the accepted experiments where green crashed, in how many
// did it restart?
//
// The same file drives the command-line pipeline:
//
//	lokirun -config examples/chaos/campaign.json
package main

import (
	"context"
	_ "embed"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	loki "repro"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
)

//go:embed campaign.json
var campaignJSON []byte

func runMatrix(opts ...loki.Option) *loki.MatrixOutcome {
	cfg, err := loki.ParseCampaignFile(campaignJSON)
	if err != nil {
		log.Fatal(err)
	}
	// Every Open builds fresh application instances, so back-to-back runs
	// share no state — only the file and its seeds.
	s, err := loki.Open(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res.Matrix
}

// acceptedSets renders each point's accepted experiment indexes, the
// determinism fingerprint.
func acceptedSets(out *loki.MatrixOutcome) map[string]string {
	sets := make(map[string]string, len(out.Points))
	for _, pr := range out.Points {
		s := ""
		for _, rec := range pr.Study.Records {
			if rec != nil && rec.Accepted {
				s += fmt.Sprintf("%d,", rec.Index)
			}
		}
		sets[pr.Point.Name()] = s
	}
	return sets
}

func main() {
	start := time.Now()
	out := runMatrix()
	elapsed := time.Since(start)

	fmt.Printf("matrix %s: %d points\n", out.Name, len(out.Points))
	fmt.Printf("%-32s %-12s %s\n", "point", "accepted", "injections")
	for _, pr := range out.Points {
		injected := 0
		for _, rec := range pr.Study.Records {
			if rec == nil || rec.Report == nil {
				continue
			}
			injected += len(rec.Report.Injections)
		}
		fmt.Printf("%-32s %d/%d          %d\n",
			pr.Point.Name(), len(pr.Study.AcceptedGlobals()), len(pr.Study.Records), injected)
	}
	accepted, total := out.AcceptedTotal()
	fmt.Printf("accepted %d/%d experiments in %.1fs (%.1f experiments/sec)\n\n",
		accepted, total, elapsed.Seconds(), float64(total)/elapsed.Seconds())

	// Determinism: the same campaign file with the same seeds must accept
	// the same experiment sets.
	again := acceptedSets(runMatrix())
	first := acceptedSets(out)
	identical := len(first) == len(again)
	for name, set := range first {
		if again[name] != set {
			identical = false
			fmt.Printf("DIVERGED at %s: %q vs %q\n", name, set, again[name])
		}
	}
	fmt.Printf("same seeds => identical accepted sets: %v\n\n", identical)

	// Virtual time: the same matrix on the simulated clock. Every sync
	// round-trip, chaos window, and election period completes instantly —
	// the run is bounded by analysis compute, not by waiting — yet the
	// hidden host-clock geometry is unchanged, so the pipeline accepts the
	// exact same experiment set.
	vStart := time.Now()
	vOut := runMatrix(loki.WithVirtualTime())
	vElapsed := time.Since(vStart)
	vAccepted, vTotal := vOut.AcceptedTotal()
	vIdentical := true
	for name, set := range first {
		if acceptedSets(vOut)[name] != set {
			vIdentical = false
			fmt.Printf("VIRTUAL DIVERGED at %s\n", name)
		}
	}
	fmt.Printf("virtual time: accepted %d/%d in %.2fs — %.0fx faster, identical accepted sets: %v\n",
		vAccepted, vTotal, vElapsed.Seconds(), elapsed.Seconds()/vElapsed.Seconds(), vIdentical)

	// Recovery coverage for the crashrestart scenario: of the accepted
	// experiments in which green crashed, how many saw it restart? The
	// second triple's observation is a custom Go callback, which is what
	// keeps this measure in code rather than in the campaign file.
	covMeasure, err := measure.NewStudyMeasure("crash-recovery",
		measure.Triple{
			Select: measure.Default{},
			Pred:   predicate.MustParse("(green, CRASH)"),
			Obs:    observation.MustParse("total_duration(T, START_EXP, END_EXP)"),
		},
		measure.Triple{
			Select: measure.Cmp{Op: measure.OpGT, Value: 0},
			Pred:   predicate.MustParse("(green, RESTART_SM)"),
			Obs: observation.User{
				Name: "restarted",
				Fn: func(p predicate.PVT, env observation.Env) float64 {
					dur := observation.TotalDuration{
						Phase: observation.TruePhase,
						Start: observation.StartExp(), End: observation.EndExp(),
					}
					if dur.Apply(p, env) > 0 {
						return 1
					}
					return 0
				},
			},
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	var crashGlobals = 0
	var values []float64
	for _, pr := range out.Points {
		if pr.Point.Scenario.Name != "crashrestart" {
			continue
		}
		globals := pr.Study.AcceptedGlobals()
		crashGlobals += len(globals)
		values = append(values, covMeasure.ApplyAll(globals)...)
	}
	if len(values) == 0 {
		fmt.Println("no accepted crashrestart experiments with a green crash; cannot estimate recovery coverage")
		return
	}
	stats := loki.ComputeMoments(values)
	fmt.Printf("crashrestart scenario: %d accepted experiments, %d with a green crash\n",
		crashGlobals, stats.N)
	fmt.Printf("recovery coverage of a green host crash: %.3f\n\n", stats.Mean())

	// Observability: the same virtual matrix once more, this time watched.
	// A progress observer counts live experiment completions, the metric
	// registry tallies verdicts and phase latencies, and every experiment
	// writes a trace under traces/<point>/expNNN.trace.jsonl whose
	// timestamps come from the virtual clock — run it twice and the trace
	// bytes are identical. Convert a trace with loki.DecodeTrace +
	// Trace.WriteChrome and load it in Perfetto (https://ui.perfetto.dev)
	// to see the phase spans.
	traceDir, err := os.MkdirTemp("", "chaos-traces-")
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := loki.ParseCampaignFile(campaignJSON)
	if err != nil {
		log.Fatal(err)
	}
	var progressEvents atomic.Int64
	s, err := loki.Open(cfg,
		loki.WithVirtualTime(),
		loki.WithMetrics(),
		loki.WithTracing(traceDir),
		loki.WithObserver(func(ev loki.ProgressEvent) {
			if ev.Kind == loki.EventExperiment {
				progressEvents.Add(1)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	oRes, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	_, oTotal := oRes.Matrix.AcceptedTotal()
	fmt.Printf("observed run: %d experiments, %d live progress events\n", oTotal, progressEvents.Load())
	snap := s.Metrics().Snapshot()
	for _, series := range []string{
		`loki_experiments_total{result="accepted"}`,
		`loki_experiments_total{result="rejected"}`,
		`loki_chaos_actions_total`,
	} {
		fmt.Printf("metric %s = %d\n", series, snap.Counters[series])
	}
	traces := 0
	filepath.WalkDir(traceDir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			traces++
		}
		return nil
	})
	fmt.Printf("trace artifacts under %s: %d files\n", traceDir, traces)
}
