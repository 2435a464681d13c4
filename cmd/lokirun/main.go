// Command lokirun is the campaign driver — the central daemon role of
// thesis §3.5.1 extended over the full pipeline of Fig. 2.1 — as a thin
// shell around the loki.Session API: it opens a campaign, runs every
// experiment of every study (or matrix point), and prints the acceptance
// summary; artifact files and the checkpoint journal are the Session's
// doing.
//
// The preferred input is a declarative campaign file:
//
//	lokirun -config campaign.json [-workers N] [-out DIR] [-resume]
//	lokirun -config campaign.json -dry-run   # validate + fingerprint only
//	lokirun -config campaign.json -out DIR -status  # journal summary only
//
// The thesis-era flag form assembles the same campaign description from
// the classic files and remains supported:
//
//	lokirun -nodes nodes.txt [-faults faults.txt] [-app election|replica|quorum]
//	        [-scenarios chaos.txt -scenario NAME]
//	        [-experiments N] [-runfor 150ms] [-dormancy 10ms] [-restart]
//	        [-seed 1] [-workers N] [-transport inproc|udp|tcp]
//	        [-out DIR] [-resume]
//
// A -scenarios/-scenario overlay appends the named scenario's fault lines
// to the study's fault list, where they behave exactly like fault-file
// lines: entries naming a built-in chaos action run that action, entries
// without one crash the machine after -dormancy (one semantics for fault
// lines wherever they appear, matching the campaign-file schema).
//
// With -out, every completed experiment's record is journaled to
// DIR/checkpoint.jsonl as it finishes; -resume skips the journaled
// experiments and executes only the missing ones; -status summarizes the
// journal (complete/missing/accepted per study or point) without running
// anything — a live, still-appending journal is reported as live, not an
// error. Ctrl-C cancels cleanly: no further experiments start,
// in-flight ones drain into the journal.
//
// Observability: -v LEVEL streams the engines' structured diagnostics to
// stderr; -progress DUR prints a live completion/ETA line at that
// interval; -trace writes one trace artifact per experiment under
// OUT/traces (convert with internal/obs WriteChrome for Perfetto). With
// -out, engine metrics are snapshotted to OUT/metrics.json after the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	loki "repro"
	"repro/internal/config"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lokirun: ")
	var (
		configPath = flag.String("config", "", "campaign file (JSON); replaces the thesis-era flags below")
		dryRun     = flag.Bool("dry-run", false, "validate the campaign and print its fingerprint without running")
		status     = flag.Bool("status", false, "summarize the checkpoint journal (requires -out or a checkpoint in the campaign file) without running")

		nodesPath    = flag.String("nodes", "", "node file: '<nick> [<host>]' per line (flag form)")
		faultsPath   = flag.String("faults", "", "fault file: '<machine> <name> <expr> <once|always> [action]' per line")
		scenarioFile = flag.String("scenarios", "", "chaos scenario spec file ('scenario <name> ... end' blocks)")
		scenarioName = flag.String("scenario", "", "named chaos scenario to overlay (requires -scenarios)")
		app          = flag.String("app", "election", "registered application: election, replica, or quorum")
		experiments  = flag.Int("experiments", 3, "experiments to run")
		runFor       = flag.Duration("runfor", 150*time.Millisecond, "application run time per experiment")
		dormancy     = flag.Duration("dormancy", 10*time.Millisecond, "fault-to-crash dormancy (0 = immediate crash)")
		restart      = flag.Bool("restart", false, "restart crashed nodes once (supervisor)")
		seed         = flag.Int64("seed", 1, "random seed (clock errors, app randomness)")
		workers      = flag.Int("workers", 0, "concurrent experiment executors (0 = campaign file's count or GOMAXPROCS)")
		transportK   = flag.String("transport", "", "run every study over this transport: inproc, udp, or tcp")
		virtualTime  = flag.Bool("virtual-time", false, "run on a simulated clock: instant wall-clock studies, identical analysis (inproc only)")
		outDir       = flag.String("out", "", "artifact directory; completed experiments are journaled to DIR/checkpoint.jsonl")
		resume       = flag.Bool("resume", false, "resume from the checkpoint journal: run only the missing experiments")
		verbosity    = flag.String("v", "", "stream structured engine diagnostics to stderr at this level: debug, info, warn, or error")
		progressD    = flag.Duration("progress", 0, "print a live progress line (completed/accepted/ETA) at this interval")
		traceOn      = flag.Bool("trace", false, "write one structured trace per experiment under OUT/traces (requires -out)")
		reportOnly   = flag.Bool("report", false, "render OUT/report.html and OUT/report.json from the existing journal/metrics/traces without running anything")
	)
	flag.Parse()
	if *reportOnly {
		// Pure artifact post-processing: no campaign is opened and nothing
		// runs, so neither -config nor -nodes is needed.
		dir := *outDir
		if dir == "" && *configPath != "" {
			if cfg, err := loki.LoadCampaignFile(*configPath); err == nil && cfg.Checkpoint != nil {
				dir = cfg.Checkpoint.Dir
			}
		}
		if dir == "" {
			log.Fatal("-report requires -out (the artifact directory holding checkpoint.jsonl, metrics.json, and traces/)")
		}
		path, err := loki.GenerateReport(dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", path)
		return
	}
	if *configPath == "" && *nodesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *configPath != "" {
		// The flag form and the campaign file describe the same thing; a
		// study-shaping flag alongside -config would be silently ignored,
		// so reject the combination instead (-workers/-transport/-out
		// compose as session options and stay legal).
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, n := range []string{"nodes", "faults", "scenarios", "scenario", "app", "experiments", "runfor", "dormancy", "restart", "seed"} {
			if set[n] {
				log.Fatalf("-%s shapes the flag-form campaign and does not combine with -config; put it in the campaign file", n)
			}
		}
	}

	cfg, err := loadOrAssemble(*configPath, flagForm{
		nodes: *nodesPath, faults: *faultsPath,
		scenarios: *scenarioFile, scenario: *scenarioName,
		app: *app, experiments: *experiments, runFor: *runFor,
		dormancy: *dormancy, restart: *restart, seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *dryRun {
		if err := loki.ValidateCampaignFile(cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("campaign %s: valid\nfingerprint %s\n", cfg.Name, loki.CampaignFileFingerprint(cfg))
		return
	}

	var opts []loki.Option
	if *workers != 0 {
		opts = append(opts, loki.WithWorkers(*workers))
	}
	if *transportK != "" {
		opts = append(opts, loki.WithTransport(*transportK))
	}
	if *virtualTime {
		opts = append(opts, loki.WithVirtualTime())
	}
	if *verbosity != "" {
		lv, err := loki.ParseLogLevel(*verbosity)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, loki.WithLogging(os.Stderr, lv))
	}
	if *outDir != "" {
		// Metrics ride along for free whenever artifacts are wanted: the
		// run ends with OUT/metrics.json next to the timelines.
		opts = append(opts, loki.WithArtifacts(*outDir), loki.WithMetrics())
	}
	if *traceOn {
		if *outDir == "" {
			log.Fatal("-trace requires -out (traces are written under OUT/traces)")
		}
		opts = append(opts, loki.WithTracing(""))
	}
	if *resume {
		dir := *outDir
		if dir == "" && cfg.Checkpoint != nil {
			dir = cfg.Checkpoint.Dir
		}
		if dir == "" {
			log.Fatal("-resume requires -out or a checkpoint dir in the campaign file (the journal lives in the artifact directory)")
		}
		opts = append(opts, loki.WithCheckpoint(dir, true))
	}
	s, err := loki.Open(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	if *status {
		st, err := s.Status()
		if err != nil {
			log.Fatal(err)
		}
		printStatus(st)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var stopProgress func()
	if *progressD > 0 {
		stopProgress = startProgress(s, *progressD, *verbosity != "")
	}
	res, err := s.Run(ctx)
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		log.Fatal(err)
	}
	printResult(res)
	printMeasures(cfg, res)
	if *outDir != "" {
		fmt.Printf("artifacts written under %s\n", *outDir)
	}
}

// flagForm carries the thesis-era flags that assemble a campaign file in
// memory — the same schema -config loads from disk.
type flagForm struct {
	nodes, faults, scenarios, scenario, app string
	experiments                             int
	runFor, dormancy                        time.Duration
	restart                                 bool
	seed                                    int64
}

// loadOrAssemble returns the campaign description: loaded from -config,
// or assembled from the classic node/fault/scenario files.
func loadOrAssemble(path string, f flagForm) (*loki.CampaignFile, error) {
	if path != "" {
		return loki.LoadCampaignFile(path)
	}
	cfg, err := config.AssembleClassicFiles("lokirun", f.nodes, f.faults, config.ClassicOptions{
		StudyName:   "study1",
		App:         f.app,
		Experiments: f.experiments,
		Seed:        f.seed,
		RunFor:      f.runFor,
		Dormancy:    f.dormancy,
		Restart:     f.restart,
	})
	if err != nil {
		return nil, err
	}
	if f.scenario != "" || f.scenarios != "" {
		if f.scenario == "" || f.scenarios == "" {
			return nil, fmt.Errorf("-scenario and -scenarios must be given together")
		}
		doc, err := os.ReadFile(f.scenarios)
		if err != nil {
			return nil, fmt.Errorf("reading scenario file: %w", err)
		}
		scs, err := config.ParseScenarioFile(string(doc))
		if err != nil {
			return nil, err
		}
		sc, err := config.FindScenario(scs, f.scenario)
		if err != nil {
			return nil, err
		}
		cfg.Studies[0].Faults = append(cfg.Studies[0].Faults, sc.Faults...)
		fmt.Printf("chaos scenario %s: %d fault entries overlaid\n", sc.Name, len(sc.Faults))
	}
	return cfg, nil
}

// printResult renders the acceptance summary for a studies campaign or a
// matrix.
func printResult(res *loki.SessionResult) {
	if res.Campaign != nil {
		for _, sr := range res.Campaign.Studies {
			fmt.Printf("study %s: %d experiments, acceptance rate %.2f\n",
				sr.Name, len(sr.Records), sr.AcceptanceRate())
			for _, rec := range sr.Records {
				printRecord(rec)
			}
		}
	}
	if res.Matrix != nil {
		fmt.Printf("matrix %s: %d points\n", res.Matrix.Name, len(res.Matrix.Points))
		for _, pr := range res.Matrix.Points {
			if pr == nil || pr.Study == nil {
				continue
			}
			fmt.Printf("point %-32s accepted %d/%d\n",
				pr.Point.Name(), len(pr.Study.AcceptedGlobals()), len(pr.Study.Records))
		}
		accepted, total := res.Matrix.AcceptedTotal()
		fmt.Printf("accepted %d/%d experiments\n", accepted, total)
	}
}

// printMeasures evaluates the campaign file's declarative measures over
// the run's accepted experiments and prints the §4.4 simple-sampling
// estimate per measure — pooled across studies (or matrix points), with a
// per-group breakdown when there is more than one group. Estimation is
// pure post-processing over the accepted global timelines, so a campaign
// without measures costs nothing here.
func printMeasures(cfg *loki.CampaignFile, res *loki.SessionResult) {
	measures, err := loki.CampaignFileMeasures(cfg)
	if err != nil || len(measures) == 0 {
		// Validate vetted the measure syntax before the run; an error here
		// means there is simply nothing printable.
		return
	}
	type group struct {
		name   string
		values []float64
	}
	var groups []group
	if res.Campaign != nil {
		for _, sr := range res.Campaign.Studies {
			groups = append(groups, group{"study " + sr.Name, nil})
		}
	}
	if res.Matrix != nil {
		for _, pr := range res.Matrix.Points {
			if pr == nil || pr.Study == nil {
				continue
			}
			groups = append(groups, group{"point " + pr.Point.Name(), nil})
		}
	}
	for _, m := range measures {
		i := 0
		if res.Campaign != nil {
			for _, sr := range res.Campaign.Studies {
				groups[i].values = m.ApplyAll(sr.AcceptedGlobals())
				i++
			}
		}
		if res.Matrix != nil {
			for _, pr := range res.Matrix.Points {
				if pr == nil || pr.Study == nil {
					continue
				}
				groups[i].values = m.ApplyAll(pr.Study.AcceptedGlobals())
				i++
			}
		}
		samples := make([][]float64, len(groups))
		for j, g := range groups {
			samples[j] = g.values
		}
		est := loki.SimpleSampling(samples...)
		fmt.Printf("measure %s: n=%d mean=%.6g stddev=%.6g\n",
			m.Name, est.Moments.N, est.Mean(), math.Sqrt(est.Moments.Mu2))
		if len(groups) > 1 {
			for _, g := range groups {
				gm := loki.ComputeMoments(g.values)
				fmt.Printf("  %-40s n=%-3d mean=%.6g\n", g.name, gm.N, gm.M1)
			}
		}
	}
}

func printRecord(rec *loki.ExperimentRecord) {
	fmt.Printf("experiment %d: completed=%v accepted=%v\n", rec.Index, rec.Completed, rec.Accepted)
	if rec.AnalysisError != "" {
		fmt.Printf("  discarded by analysis: %s\n", rec.AnalysisError)
	}
	if rec.ClockStepSuspected {
		fmt.Printf("  clock step suspected on hosts %v (sync mini-phases disagree)\n", rec.ClockStepHosts)
		for _, h := range rec.ClockStepHosts {
			if b, ok := rec.ClockStepBounds[h]; ok {
				fmt.Printf("    %s: step within [%v, %v]\n", h, b.Lo.Duration(), b.Hi.Duration())
			}
		}
	}
	if rec.Report != nil {
		for _, chk := range rec.Report.Injections {
			fmt.Printf("  %s on %s at %v: correct=%v\n", chk.Fault, chk.Machine, chk.At, chk.Correct)
		}
		for _, miss := range rec.Report.MissingFaults {
			fmt.Printf("  expected but missing: %s\n", miss)
		}
	}
}

// progressTracker accumulates live Session events into per-point
// completion state for the -progress ticker.
type progressTracker struct {
	mu      sync.Mutex
	start   time.Time
	points  map[string]*pointProgress
	verbose bool // also print one line per experiment, member-attributed
}

type pointProgress struct {
	total, done, accepted int
	baseline              int // journaled records already complete at study start (resume)
	started, finished     bool
}

func (p *progressTracker) observe(ev loki.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.points[ev.Point]
	if ps == nil {
		ps = &pointProgress{}
		p.points[ev.Point] = ps
	}
	ps.total = ev.Experiments
	ps.done = ev.Completed
	ps.accepted = ev.Accepted
	switch ev.Kind {
	case loki.EventStudyStart:
		ps.started, ps.baseline = true, ev.Completed
	case loki.EventStudyDone:
		ps.finished = true
	case loki.EventExperiment:
		if p.verbose {
			member := ""
			if ev.Member != "" {
				member = " member=" + ev.Member
			}
			verdict := "rejected"
			if ev.AcceptedOne {
				verdict = "accepted"
			}
			fmt.Printf("progress: %s exp %d/%d %s%s\n", ev.Point, ev.Index+1, ev.Experiments, verdict, member)
		}
	}
}

// line renders one progress snapshot: totals, rate, and an ETA projected
// from the experiments completed since this run started (journaled
// records resumed past are excluded from the rate).
func (p *progressTracker) line(now time.Time) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total, done, accepted, fresh, active int
	for _, ps := range p.points {
		total += ps.total
		done += ps.done
		accepted += ps.accepted
		fresh += ps.done - ps.baseline
		if ps.started && !ps.finished {
			active++
		}
	}
	line := fmt.Sprintf("progress: %d/%d experiments complete, %d accepted, %d point(s) active",
		done, total, accepted, active)
	elapsed := now.Sub(p.start)
	if fresh > 0 && done < total && elapsed > 0 {
		eta := time.Duration(float64(elapsed) / float64(fresh) * float64(total-done))
		line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	return line
}

// startProgress subscribes a tracker to the session's live events and
// prints one line per interval until the returned stop is called. With
// verbose (-progress combined with -v) each completed experiment also
// prints its own line, member-attributed in clustered runs.
func startProgress(s *loki.Session, every time.Duration, verbose bool) (stop func()) {
	pt := &progressTracker{start: time.Now(), points: make(map[string]*pointProgress), verbose: verbose}
	cancel := s.Watch(pt.observe)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				fmt.Println(pt.line(now))
			}
		}
	}()
	return func() {
		cancel()
		close(done)
	}
}

// printStatus renders the checkpoint-journal summary.
func printStatus(st *loki.SessionStatus) {
	fmt.Printf("journal %s\n", st.JournalPath)
	fmt.Printf("campaign %q fingerprint %s", st.Campaign, st.Fingerprint)
	if st.FingerprintMatch {
		fmt.Printf(" (matches this configuration)\n")
	} else {
		fmt.Printf(" (DOES NOT match this configuration; -resume would refuse it)\n")
	}
	if st.Appending {
		fmt.Println("journal is live: a record is mid-append; counts cover fsync'd records")
	}
	if st.Torn {
		fmt.Println("journal tail is garbled (damaged file); counts cover the intact prefix")
	}
	fmt.Printf("%-32s %9s %9s %9s %9s\n", "point", "expected", "complete", "missing", "accepted")
	for _, p := range st.Points {
		fmt.Printf("%-32s %9d %9d %9d %9d\n", p.Point, p.Expected, p.Complete, p.Missing(), p.Accepted)
	}
	expected, complete, accepted := st.Totals()
	// Missing sums the per-point floors: a journal holding more than the
	// configuration expects (renamed study, reduced count) must not
	// print a negative number.
	missing := 0
	for _, p := range st.Points {
		missing += p.Missing()
	}
	fmt.Printf("total: %d/%d complete, %d missing, accept rate %.2f (%d accepted)\n",
		complete, expected, missing, st.AcceptRate(), accepted)
}
