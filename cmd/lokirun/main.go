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
// # Runtime phase only
//
// "lokirun runtime [flags]" takes the same flags and does the daemons'
// job of thesis §3.5: it runs one experiment of the first study, sync
// mini-phases included, and writes the raw artifacts under -out — one
// local timeline file per state machine (§3.5.6 format) and the
// timestamps file — for the off-line tools below. It refuses
// -experiments. Its flag form is one experiment of study "runtime" in
// campaign "lokid", so -resume rewrites the raw artifacts of such a
// directory from its journal instead of rerunning. A signal ends an
// in-process run at once.
//
// # Multi-process runs
//
// With -name, the process joins a cluster of lokirun processes, each
// hosting a subset of the virtual hosts over real sockets (-transport udp
// or tcp). The campaign file's "cluster" section supplies the peer table,
// the host owners and the socket kind; -peers, -owners and -transport
// override it, and -listen sets this peer's address:
//
//	lokirun [runtime] -nodes nodes.txt -transport udp -out DIR \
//	      -name alpha -listen 127.0.0.1:7101 \
//	      -peers 'alpha=127.0.0.1:7101,beta=127.0.0.1:7102' \
//	      -owners 'h1=alpha,h2=beta,h3=beta' &
//	lokirun [runtime] -nodes nodes.txt -transport udp -name beta ... # same -peers/-owners
//
// The peer owning the lexicographically first host coordinates: it runs
// the experiment protocol, analyzes the timelines streamed back from
// every peer, writes the artifacts (in runtime mode it needs -out) and
// prints the result; the others serve it and print that they are done.
//
// Observability: -v LEVEL streams the engines' structured diagnostics to
// stderr; -progress DUR prints a live completion/ETA line at that
// interval; -metrics ADDR serves Prometheus text at http://ADDR/metrics
// and pprof under /debug/pprof. -trace writes one trace artifact per
// experiment under OUT/traces (for Perfetto, read one with
// loki.DecodeTrace and convert it with Trace.WriteChrome); a cluster
// member without -out buffers its lane for the coordinator to merge.
// With -out, engine metrics are snapshotted to OUT/metrics.json, with
// every member's series labelled by member.
//
// # Off-line tools
//
// The thesis's §3.5 off-line tool chain runs as subcommands over the
// files a run writes under -out, each with its own flags:
//
//	lokirun getstamps  -machines machines.txt [-count 20] [-spacing 1ms]
//	                   [-gap 30s] [-seed 1] [-out timestamps.txt]
//	lokirun alphabeta  -stamps timestamps.txt [-ref host] [-out alphabeta.txt]
//	lokirun makeglobal -alphabeta alphabeta.txt [-out global.timeline]
//	                   [-require-triggered] local1.timeline local2.timeline ...
//	lokirun measure    -triple 'sel ; pred ; obs' [-triple ...] [-name NAME]
//	                   exp000/global.timeline ...
//
// Each writes to stdout unless -out is given, and exits 2 on a usage
// error; makeglobal exits 1 when an injection is unprovable (§2.5).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	loki "repro"
	"repro/internal/campaign"
	"repro/internal/config"
)

func main() {
	log.SetFlags(0)
	args := os.Args[1:]
	if len(args) > 0 {
		if tool, ok := offlineTools[args[0]]; ok {
			log.SetPrefix(args[0] + ": ")
			tool(flag.NewFlagSet("lokirun "+args[0], flag.ExitOnError), args[1:])
			return
		}
	}
	name, runtime := "lokirun", len(args) > 0 && args[0] == "runtime"
	if runtime {
		name, args = "lokirun runtime", args[1:]
	}
	log.SetPrefix(name + ": ")
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	f := parseFlags(fs, args)
	if f.report {
		// Pure artifact post-processing: no campaign is opened and nothing
		// runs, so neither -config nor -nodes is needed.
		dir := f.out
		if dir == "" && f.config != "" {
			if cfg, err := loki.LoadCampaignFile(f.config); err == nil && cfg.Checkpoint != nil {
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
	if f.config == "" && f.nodes == "" {
		usage(fs, "")
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if runtime && set["experiments"] {
		log.Fatal("-experiments: the runtime phase runs exactly one experiment, and the count is part of the study fingerprint")
	}
	if f.config != "" {
		// The flag form and the campaign file describe the same thing; a
		// study-shaping flag alongside -config would be silently ignored,
		// so reject the combination instead (the session flags compose
		// as session options and stay legal).
		for _, n := range []string{"nodes", "faults", "scenarios", "scenario", "app", "experiments", "runfor", "dormancy", "restart", "seed"} {
			if set[n] {
				log.Fatalf("-%s shapes the flag-form campaign and does not combine with -config; put it in the campaign file", n)
			}
		}
	}

	cfg, err := loadOrAssemble(f, runtime)
	if err != nil {
		log.Fatal(err)
	}
	if f.dryRun {
		if err := loki.ValidateCampaignFile(cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("campaign %s: valid\nfingerprint %s\n", cfg.Name, loki.CampaignFileFingerprint(cfg))
		return
	}
	cluster, err := clusterConfig(cfg, f)
	if err != nil {
		log.Fatal(err)
	}
	if runtime && f.out == "" && cluster == nil {
		usage(fs, "-out is required: the raw artifacts are written there (only a cluster member may leave it out)")
	}
	opts, err := sessionOptions(f, cfg, cluster)
	if err != nil {
		log.Fatal(err)
	}
	s, err := loki.Open(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	if f.status {
		st, err := s.Status()
		if err != nil {
			log.Fatal(err)
		}
		printStatus(st)
		return
	}
	if f.metrics != "" {
		shutdown, err := serveMetrics(f.metrics, s.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
	}
	if cluster != nil {
		coordinator, err := s.ClusterCoordinator()
		if err != nil {
			log.Fatal(err)
		}
		if runtime && coordinator && f.out == "" {
			// Fail before the whole cluster runs an experiment whose
			// artifacts would be silently discarded.
			log.Fatal("this peer owns the reference host and coordinates: -out is required")
		}
		role := "member"
		if coordinator {
			role = "coordinator"
		}
		fmt.Printf("%s %s running (transport %s)\n", role, cluster.Name, cluster.Kind)
	}

	ctx := context.Background()
	if !runtime || cluster != nil {
		// SIGINT or SIGTERM cancels: no further experiments start,
		// in-flight ones drain into the journal, and a cluster protocol
		// quits. The in-process engine never interrupts a runtime phase,
		// so a signal ends an in-process runtime run at once instead.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
		defer stop()
	}
	stopProgress := func() {}
	if f.progress > 0 {
		stopProgress = startProgress(s, f.progress, f.verbosity != "")
	}
	var res *loki.SessionResult
	var e *loki.Experiment
	if runtime {
		e, err = s.RunOne(ctx)
	} else {
		res, err = s.Run(ctx)
	}
	stopProgress()
	switch {
	case err != nil:
		log.Fatal(err)
	case runtime && e.Served || !runtime && res.Served:
		fmt.Printf("member %s done\n", cluster.Name)
	case runtime:
		printExperiment(e, f.out)
	default:
		printResult(res)
		printMeasures(cfg, res)
		if f.out != "" {
			fmt.Printf("artifacts written under %s\n", f.out)
		}
	}
}

// flags are lokirun's command line, shared by the campaign command and
// its runtime subcommand.
type flags struct {
	config, nodes, faults, scenarios, scenario, app, transport, out string
	verbosity, metrics, name, listen, peers, owners                 string
	dryRun, status, report, restart, virtualTime, resume, trace     bool
	experiments, workers                                            int
	runFor, dormancy, progress                                      time.Duration
	seed                                                            int64
}

// parseFlags defines lokirun's flags on fs and parses args into them.
func parseFlags(fs *flag.FlagSet, args []string) *flags {
	f := &flags{}
	fs.StringVar(&f.config, "config", "", "campaign file (JSON); replaces the thesis-era flags below")
	fs.BoolVar(&f.dryRun, "dry-run", false, "validate the campaign and print its fingerprint without running")
	fs.BoolVar(&f.status, "status", false, "summarize the checkpoint journal (requires -out or a checkpoint in the campaign file) without running")
	fs.BoolVar(&f.report, "report", false, "render OUT/report.html and OUT/report.json from the existing journal/metrics/traces without running anything")

	fs.StringVar(&f.nodes, "nodes", "", "node file: '<nick> [<host>]' per line (flag form)")
	fs.StringVar(&f.faults, "faults", "", "fault file: '<machine> <name> <expr> <once|always> [action]' per line")
	fs.StringVar(&f.scenarios, "scenarios", "", "chaos scenario spec file ('scenario <name> ... end' blocks)")
	fs.StringVar(&f.scenario, "scenario", "", "named chaos scenario to overlay (requires -scenarios)")
	fs.StringVar(&f.app, "app", "election", "registered application: election, replica, or quorum")
	fs.IntVar(&f.experiments, "experiments", 3, "experiments to run (not with runtime, which runs one)")
	fs.DurationVar(&f.runFor, "runfor", 150*time.Millisecond, "application run time per experiment")
	fs.DurationVar(&f.dormancy, "dormancy", 10*time.Millisecond, "fault-to-crash dormancy (0 = immediate crash)")
	fs.BoolVar(&f.restart, "restart", false, "restart crashed nodes once (supervisor)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed (clock errors, app randomness)")

	fs.IntVar(&f.workers, "workers", 0, "concurrent experiment executors (0 = campaign file's count or GOMAXPROCS)")
	fs.StringVar(&f.transport, "transport", "", "run every study over this transport: inproc, udp, or tcp; with -name, the socket kind: udp or tcp")
	fs.BoolVar(&f.virtualTime, "virtual-time", false, "run on a simulated clock: instant wall-clock studies, identical analysis (inproc only)")
	fs.StringVar(&f.out, "out", "", "artifact directory; completed experiments are journaled to DIR/checkpoint.jsonl")
	fs.BoolVar(&f.resume, "resume", false, "resume from the checkpoint journal: run only the missing experiments")

	fs.StringVar(&f.verbosity, "v", "", "stream structured engine diagnostics to stderr at this level: debug, info, warn, or error")
	fs.DurationVar(&f.progress, "progress", 0, "print a live progress line (completed/accepted/ETA) at this interval")
	fs.BoolVar(&f.trace, "trace", false, "write one structured trace per experiment under OUT/traces (requires -out, except on a cluster member, which buffers its lane for the coordinator)")
	fs.StringVar(&f.metrics, "metrics", "", "serve Prometheus metrics at http://ADDR/metrics (pprof under /debug/pprof)")

	fs.StringVar(&f.name, "name", "", "this process's peer name: joins a multi-process cluster")
	fs.StringVar(&f.listen, "listen", "", "this peer's listen address (requires -name)")
	fs.StringVar(&f.peers, "peers", "", "peer table 'name=addr,...' (requires -name; overrides the campaign file's)")
	fs.StringVar(&f.owners, "owners", "", "host ownership 'host=peer,...' (requires -name; overrides the campaign file's)")

	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "Runtime phase only: lokirun runtime [flags]")
		fmt.Fprintln(fs.Output(), "Off-line tools: lokirun getstamps|alphabeta|makeglobal|measure [flags]")
	}
	fs.Parse(args)
	return f
}

// loadOrAssemble returns the campaign description: loaded from -config,
// or assembled from the classic node/fault/scenario files. The runtime
// subcommand's flag form is one experiment of study "runtime" in
// campaign "lokid", the names its journals and traces have always had.
func loadOrAssemble(f *flags, runtime bool) (*loki.CampaignFile, error) {
	if f.config != "" {
		return loki.LoadCampaignFile(f.config)
	}
	name, study, experiments := "lokirun", "study1", f.experiments
	if runtime {
		name, study, experiments = "lokid", "runtime", 1
	}
	cfg, err := config.AssembleClassicFiles(name, f.nodes, f.faults, config.ClassicOptions{
		StudyName:   study,
		App:         f.app,
		Experiments: experiments,
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

// clusterConfig merges the campaign file's cluster section with the
// multi-process flags (flags win). A nil result, without -name, means
// single-process.
func clusterConfig(cfg *loki.CampaignFile, f *flags) (*loki.ClusterConfig, error) {
	if f.name == "" {
		if f.listen != "" || f.peers != "" || f.owners != "" {
			return nil, fmt.Errorf("-listen, -peers and -owners configure a cluster peer and need -name")
		}
		return nil, nil
	}
	cl := &loki.ClusterConfig{Name: f.name, Listen: f.listen, Kind: f.transport}
	if cfg.Cluster != nil {
		if cl.Kind == "" {
			cl.Kind = cfg.Cluster.Kind
		}
		cl.Peers = cfg.Cluster.Peers
		cl.Owners = cfg.Cluster.Owners
	}
	if f.peers != "" {
		m, err := config.ParseAssignments(f.peers, "peer")
		if err != nil {
			return nil, err
		}
		cl.Peers = m
	}
	if f.owners != "" {
		m, err := config.ParseAssignments(f.owners, "owner")
		if err != nil {
			return nil, err
		}
		cl.Owners = m
	}
	if len(cl.Peers) == 0 || len(cl.Owners) == 0 {
		return nil, fmt.Errorf("multi-process mode needs peer and owner tables (-peers/-owners or the campaign file's cluster section)")
	}
	return cl, nil
}

// sessionOptions turns the session flags into Session options.
func sessionOptions(f *flags, cfg *loki.CampaignFile, cluster *loki.ClusterConfig) ([]loki.Option, error) {
	var opts []loki.Option
	if f.workers != 0 {
		opts = append(opts, loki.WithWorkers(f.workers))
	}
	if f.transport != "" && cluster == nil {
		opts = append(opts, loki.WithTransport(f.transport))
	}
	if f.virtualTime {
		opts = append(opts, loki.WithVirtualTime())
	}
	if f.verbosity != "" {
		lv, err := loki.ParseLogLevel(f.verbosity)
		if err != nil {
			return nil, err
		}
		opts = append(opts, loki.WithLogging(os.Stderr, lv))
	}
	if f.out != "" {
		opts = append(opts, loki.WithArtifacts(f.out))
	}
	// Metrics ride along whenever artifacts are wanted (the run ends with
	// OUT/metrics.json), are served, or may be pulled: a cluster member
	// answers the coordinator's metrics pull with its local series.
	if f.out != "" || f.metrics != "" || cluster != nil {
		opts = append(opts, loki.WithMetrics())
	}
	if f.trace {
		switch {
		case f.out != "":
			opts = append(opts, loki.WithTracing(""))
		case cluster != nil:
			// A member without local artifacts buffers its lane in
			// memory, where the coordinator's trace pull finds it.
			opts = append(opts, loki.WithTraceBuffer())
		default:
			return nil, fmt.Errorf("-trace requires -out (traces are written under OUT/traces), except on a cluster member (-name)")
		}
	}
	if f.resume {
		dir := f.out
		if dir == "" && cfg.Checkpoint != nil {
			dir = cfg.Checkpoint.Dir
		}
		if dir == "" {
			return nil, fmt.Errorf("-resume requires -out or a checkpoint dir in the campaign file (the journal lives in the artifact directory)")
		}
		opts = append(opts, loki.WithCheckpoint(dir, true))
	}
	if cluster != nil {
		opts = append(opts, loki.WithCluster(*cluster))
	}
	return opts, nil
}

// printExperiment prints the raw artifacts one experiment wrote under
// out, or exits 1 when its verdict left none.
func printExperiment(e *loki.Experiment, out string) {
	switch e.Record.Verdict() {
	case campaign.Aborted:
		log.Fatal("experiment timed out; no artifacts written")
	case campaign.Discarded:
		// The analysis phase discarded the run (e.g. infeasible clock
		// synchronization after a clockstep fault): its artifacts cannot
		// be trusted, and the Session wrote none.
		if e.Record.ClockStepSuspected {
			log.Printf("clock step suspected on hosts %v", e.Record.ClockStepHosts)
		}
		log.Fatalf("experiment discarded by analysis: %s", e.Record.AnalysisError)
	}
	for _, tl := range e.Locals {
		fmt.Printf("wrote %s (%d entries)\n", filepath.Join(out, tl.Owner+".timeline"), len(tl.Entries))
	}
	fmt.Printf("wrote %s (%d messages)\n", filepath.Join(out, "timestamps.txt"), len(e.Stamps))
	for nick, outcome := range e.Record.Outcomes {
		fmt.Printf("node %s: %s\n", nick, outcome)
	}
}

// serveMetrics exposes the session's registry as Prometheus text at
// /metrics and the runtime profiles under /debug/pprof on addr. The
// listener is bound synchronously so a bad address fails at startup, not
// in a goroutine's log output.
func serveMetrics(addr string, reg *loki.MetricsRegistry) (shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // where net/http/pprof registers
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("metrics server: %v", err)
		}
	}()
	fmt.Printf("metrics at http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
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
	fmt.Printf("experiment %d: %v\n", rec.Index, rec.Verdict())
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
			fmt.Printf("progress: %s exp %d/%d %s%s\n", ev.Point, ev.Index+1, ev.Experiments, ev.Verdict, member)
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
		fmt.Println("journal is damaged: a line does not verify; counts cover the lines before it, and -resume re-runs the experiments journaled from it on")
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
