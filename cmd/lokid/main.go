// Command lokid runs the runtime phase only — the daemons' job in thesis
// §3.5 — as a thin shell around the loki.Session API: one experiment of a
// study (synchronization mini-phases included), emitting the raw
// artifacts the off-line pipeline consumes: one local timeline file per
// state machine (§3.5.6 format) and the timestamps file for alphabeta.
//
// Single-process usage (the whole testbed on the in-memory bus):
//
//	lokid -config campaign.json -out DIR
//	lokid -nodes nodes.txt [-faults faults.txt] [-app election|replica|quorum]
//	      [-runfor 150ms] [-dormancy 10ms] [-seed 1] -out DIR
//
// Multi-process usage: one lokid per OS process, each hosting a subset of
// the virtual hosts, connected over real sockets. The topology can live
// in the campaign file's "cluster" section (every process passes its own
// -name) or entirely in flags:
//
//	lokid -config campaign.json -name alpha -listen 127.0.0.1:7101 -out DIR &
//	lokid -config campaign.json -name beta  -listen 127.0.0.1:7102
//
//	lokid -nodes nodes.txt -out DIR -transport udp \
//	      -name alpha -listen 127.0.0.1:7101 \
//	      -peers 'alpha=127.0.0.1:7101,beta=127.0.0.1:7102' \
//	      -owners 'h1=alpha,h2=beta,h3=beta' &
//	lokid -nodes nodes.txt -transport udp \
//	      -name beta -listen 127.0.0.1:7102 \
//	      -peers 'alpha=127.0.0.1:7101,beta=127.0.0.1:7102' \
//	      -owners 'h1=alpha,h2=beta,h3=beta'
//
// The peer owning the lexicographically first host coordinates: it runs
// the experiment protocol, performs the analysis phase with the timelines
// streamed back from every peer, writes the artifacts, and tells the
// other processes to stop. SIGINT/SIGTERM drain cleanly.
//
// In both modes the experiment's record is journaled to
// OUT/checkpoint.jsonl when it completes; re-invoking with -resume
// rewrites the artifacts from the journal instead of rerunning.
//
// Observability: -v LEVEL streams structured engine diagnostics to
// stderr; -metrics ADDR serves Prometheus text at http://ADDR/metrics
// plus the pprof endpoints under /debug/pprof for the daemon's lifetime.
// -trace captures one structured trace per experiment: the coordinator
// writes merged OUT/traces artifacts with one lane per process, a member
// buffers its lane in memory for the coordinator to pull. Cluster
// members always keep a local metric registry so the coordinator can
// aggregate per-member series into OUT/metrics.json.
//
// Continue the pipeline with:
//
//	lokirun alphabeta  -stamps DIR/timestamps.txt -out DIR/alphabeta.txt
//	lokirun makeglobal -alphabeta DIR/alphabeta.txt -out DIR/global.timeline DIR/*.timeline
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	loki "repro"
	"repro/internal/config"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lokid: ")
	var (
		configPath = flag.String("config", "", "campaign file (JSON); replaces the node/fault flags")
		nodesPath  = flag.String("nodes", "", "node file (flag form)")
		faultsPath = flag.String("faults", "", "fault file: '<machine> <name> <expr> <once|always> [action]' per line")
		app        = flag.String("app", "election", "registered application: election, replica, or quorum")
		runFor     = flag.Duration("runfor", 150*time.Millisecond, "application run time")
		dormancy   = flag.Duration("dormancy", 10*time.Millisecond, "fault-to-crash dormancy")
		seed       = flag.Int64("seed", 1, "random seed")
		outDir     = flag.String("out", "", "output directory (required for single-process and coordinator)")
		resume     = flag.Bool("resume", false, "resume from OUT/checkpoint.jsonl: a journaled experiment is not rerun, its artifacts are rewritten from the journal")

		verbosity   = flag.String("v", "", "stream structured engine diagnostics to stderr at this level: debug, info, warn, or error")
		metricsAddr = flag.String("metrics", "", "serve Prometheus metrics at http://ADDR/metrics (pprof under /debug/pprof)")
		traceOn     = flag.Bool("trace", false, "capture one structured trace per experiment; the coordinator writes OUT/traces, a member buffers its lane for the coordinator to pull and merge")

		transportKind = flag.String("transport", "", "socket transport for multi-process mode: udp or tcp")
		name          = flag.String("name", "", "this process's peer name (multi-process mode)")
		listen        = flag.String("listen", "", "this process's listen address (multi-process mode)")
		peersFlag     = flag.String("peers", "", "peer table 'name=addr,...' (multi-process mode)")
		ownersFlag    = flag.String("owners", "", "host ownership 'host=peer,...' (multi-process mode)")
	)
	flag.Parse()

	// SIGINT or SIGTERM cancels the run instead of leaving sockets and
	// node goroutines to die with the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *nodesPath == "" && *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *configPath != "" {
		// Study-shaping flags would be silently ignored next to -config;
		// reject the combination (cluster flags and -out/-resume compose
		// as session options and stay legal).
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, n := range []string{"nodes", "faults", "app", "runfor", "dormancy", "seed"} {
			if set[n] {
				log.Fatalf("-%s shapes the flag-form campaign and does not combine with -config; put it in the campaign file", n)
			}
		}
	}
	cfg, err := loadOrAssemble(*configPath, *nodesPath, *faultsPath, *app, *runFor, *dormancy, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := clusterConfig(cfg, *transportKind, *name, *listen, *peersFlag, *ownersFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *outDir == "" && cluster == nil {
		flag.Usage()
		os.Exit(2)
	}

	var opts []loki.Option
	if *verbosity != "" {
		lv, err := loki.ParseLogLevel(*verbosity)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, loki.WithLogging(os.Stderr, lv))
	}
	if *metricsAddr != "" {
		opts = append(opts, loki.WithMetrics())
	}
	if *outDir != "" {
		opts = append(opts, loki.WithArtifacts(*outDir), loki.WithMetrics())
	}
	if *traceOn {
		if *outDir != "" {
			opts = append(opts, loki.WithTracing(""))
		} else {
			// Member without local artifacts: buffer the lane in memory
			// so the coordinator's trace pull finds it.
			opts = append(opts, loki.WithTraceBuffer())
		}
	}
	if cluster != nil && *outDir == "" {
		// A member must always be able to answer the coordinator's
		// metrics pull with its local series.
		opts = append(opts, loki.WithMetrics())
	}
	if *resume {
		if *outDir == "" {
			log.Fatal("-resume requires -out (the journal lives in the artifact directory)")
		}
		opts = append(opts, loki.WithCheckpoint(*outDir, true))
	}
	if cluster != nil {
		opts = append(opts, loki.WithCluster(*cluster))
	}
	s, err := loki.Open(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	if *metricsAddr != "" {
		shutdown, err := serveMetrics(*metricsAddr, s.Metrics())
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
		if coordinator && *outDir == "" {
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

	// Run off the main goroutine so a signal aborts immediately even
	// mid-experiment: a clustered run quits its protocol and returns via
	// ctx, but the in-process engine never interrupts a runtime phase —
	// there the pre-Session fatal-on-signal behaviour is kept.
	type oneResult struct {
		e   *loki.Experiment
		err error
	}
	ch := make(chan oneResult, 1)
	go func() {
		e, err := s.RunOne(ctx)
		ch <- oneResult{e, err}
	}()
	var e *loki.Experiment
	select {
	case <-ctx.Done():
		// The experiment may have finished (artifacts written) in the
		// same instant the signal landed; prefer its result over lying
		// about it.
		select {
		case got := <-ch:
			e, err = got.e, got.err
		default:
			if cluster == nil {
				log.Fatal("interrupted; no artifacts written")
			}
			got := <-ch // member protocol quits promptly on cancellation
			e, err = got.e, got.err
		}
	case got := <-ch:
		e, err = got.e, got.err
	}
	if err != nil {
		log.Fatal(err)
	}
	if e.Served {
		fmt.Printf("member %s done\n", cluster.Name)
		return
	}
	if !e.Record.Completed {
		log.Fatal("experiment timed out; no artifacts written")
	}
	if e.Record.AnalysisError != "" {
		// The analysis phase discarded the run (e.g. infeasible clock
		// synchronization after a clockstep fault): its artifacts cannot
		// be trusted, and the Session wrote none.
		if e.Record.ClockStepSuspected {
			log.Printf("clock step suspected on hosts %v", e.Record.ClockStepHosts)
		}
		log.Fatalf("experiment discarded by analysis: %s", e.Record.AnalysisError)
	}
	for _, tl := range e.Locals {
		fmt.Printf("wrote %s (%d entries)\n", filepath.Join(*outDir, tl.Owner+".timeline"), len(tl.Entries))
	}
	fmt.Printf("wrote %s (%d messages)\n", filepath.Join(*outDir, "timestamps.txt"), len(e.Stamps))
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
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("metrics server: %v", err)
		}
	}()
	fmt.Printf("metrics at http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// loadOrAssemble returns the campaign description: loaded from -config or
// assembled from the classic files (one study, one experiment).
func loadOrAssemble(configPath, nodesPath, faultsPath, app string, runFor, dormancy time.Duration, seed int64) (*loki.CampaignFile, error) {
	if configPath != "" {
		return loki.LoadCampaignFile(configPath)
	}
	if nodesPath == "" {
		return nil, fmt.Errorf("need -config or -nodes")
	}
	return config.AssembleClassicFiles("lokid", nodesPath, faultsPath, config.ClassicOptions{
		StudyName:   "runtime",
		App:         app,
		Experiments: 1,
		Seed:        seed,
		RunFor:      runFor,
		Dormancy:    dormancy,
	})
}

// clusterConfig merges the campaign file's cluster section with the
// multi-process flags (flags win). A nil result means single-process.
func clusterConfig(cfg *loki.CampaignFile, kind, name, listen, peers, owners string) (*loki.ClusterConfig, error) {
	flagged := kind != "" || name != "" || listen != "" || peers != "" || owners != ""
	if !flagged && (cfg == nil || cfg.Cluster == nil) {
		return nil, nil
	}
	cl := &loki.ClusterConfig{Name: name, Listen: listen, Kind: kind}
	if cfg != nil && cfg.Cluster != nil {
		if cl.Kind == "" {
			cl.Kind = cfg.Cluster.Kind
		}
		cl.Peers = cfg.Cluster.Peers
		cl.Owners = cfg.Cluster.Owners
	}
	if peers != "" {
		m, err := config.ParseAssignments(peers, "peer")
		if err != nil {
			return nil, err
		}
		cl.Peers = m
	}
	if owners != "" {
		m, err := config.ParseAssignments(owners, "owner")
		if err != nil {
			return nil, err
		}
		cl.Owners = m
	}
	if cl.Name == "" {
		return nil, fmt.Errorf("multi-process mode needs -name")
	}
	if len(cl.Peers) == 0 || len(cl.Owners) == 0 {
		return nil, fmt.Errorf("multi-process mode needs peer and owner tables (-peers/-owners or the campaign file's cluster section)")
	}
	return cl, nil
}
