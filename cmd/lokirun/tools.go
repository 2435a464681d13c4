package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// offlineTools are the thesis's §3.5 off-line tools, run as
// "lokirun <tool> [flags]". Each parses its own flag set and logs with
// its own name as the prefix (main dispatches on os.Args[1]).
var offlineTools = map[string]func(fs *flag.FlagSet, args []string){
	"getstamps":  getstamps,
	"alphabeta":  alphabeta,
	"makeglobal": makeglobal,
	"measure":    measureTool,
}

// usage prints problem, when there is one, and the tool's flags, then
// exits 2: the status the flag package gives a flag it cannot parse.
func usage(fs *flag.FlagSet, problem string) {
	if problem != "" {
		log.Print(problem)
	}
	fs.Usage()
	os.Exit(2)
}

// writeOutput writes encode's output to stdout when path is empty, and
// otherwise to the file at path through obs.WriteArtifact.
func writeOutput(path string, encode func(io.Writer) error) error {
	if path == "" {
		return encode(os.Stdout)
	}
	return obs.WriteArtifact(path, 0o666, encode)
}

// readFile opens path and hands it to decode; it exits 1 when either
// fails.
func readFile(path string, decode func(io.Reader) error) {
	f, err := os.Open(path)
	if err == nil {
		err = decode(f)
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// decodeFiles decodes each named file, naming the file in a decode error;
// it exits 1 on the first that cannot be opened or decoded.
func decodeFiles[T any](paths []string, decode func(io.Reader) (T, error)) []T {
	out := make([]T, len(paths))
	for i, path := range paths {
		readFile(path, func(r io.Reader) (err error) {
			if out[i], err = decode(r); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
			return err
		})
	}
	return out
}

// getstamps produces a timestamps file of synchronization messages — the
// thesis's
//
//	getstamps <MachinesFile> <NumberOfSyncMsgs> <TimeBetweenSyncMsgs>
//	          <PortNumber> <TimestampsFile>
//
// step (§5.6), on a simulated LAN: every host gets a hidden clock error
// (seeded), messages take an exponential-over-floor one-way delay, and
// both mini-phases (before/after a configurable experiment gap) are
// emitted. The hidden ground truth is appended as comments so the
// alphabeta bounds can be checked by eye.
func getstamps(fs *flag.FlagSet, args []string) {
	var (
		machinesPath = fs.String("machines", "", "machines file (one host per line; required)")
		count        = fs.Int("count", 20, "sync round trips per host pair per mini-phase")
		spacing      = fs.Duration("spacing", time.Millisecond, "virtual time between messages")
		gap          = fs.Duration("gap", 30*time.Second, "virtual experiment duration between the two mini-phases")
		seed         = fs.Int64("seed", 1, "seed for hidden clock errors and latencies")
		outPath      = fs.String("out", "", "timestamps output file (default: stdout)")
	)
	fs.Parse(args)
	// clocksync.ExchangeConfig reads a zero or negative count or spacing
	// as "use the default", so they are refused here rather than quietly
	// replaced; a negative gap would move the virtual clock backwards.
	switch {
	case *machinesPath == "":
		usage(fs, "")
	case *count < 1:
		usage(fs, fmt.Sprintf("-count %d: want at least 1 round trip", *count))
	case *spacing <= 0:
		usage(fs, fmt.Sprintf("-spacing %v: want a positive duration", *spacing))
	case *gap < 0:
		usage(fs, fmt.Sprintf("-gap %v: want a duration of zero or more", *gap))
	}
	doc, err := os.ReadFile(*machinesPath)
	if err != nil {
		log.Fatalf("reading machines file %q: %v", *machinesPath, err)
	}
	hosts, err := spec.ParseMachinesFile(string(doc))
	if err != nil {
		log.Fatal(err)
	}

	src := vclock.NewManualSource(0)
	rng := rand.New(rand.NewSource(*seed))
	truth := make(map[string]vclock.ClockConfig, len(hosts))
	clocks := make(map[string]*vclock.Clock, len(hosts))
	for i, h := range hosts {
		cfg := vclock.ClockConfig{
			Offset:   vclock.Ticks(rng.Int63n(20e6)) - 10e6,
			DriftPPM: float64(rng.Intn(200) - 100),
		}
		if i == 0 {
			cfg = vclock.ClockConfig{}
		}
		truth[h] = cfg
		clocks[h] = vclock.NewClock(src, cfg)
	}
	ref := hosts[0]

	lan := simnet.Exponential{Min: 80_000, MeanTail: 70_000}
	exch := clocksync.ExchangeConfig{Count: *count, Spacing: vclock.FromDuration(*spacing)}
	msgs, err := clocksync.Exchange(src, clocks, ref, lan, rng, exch)
	if err != nil {
		log.Fatal(err)
	}
	src.Advance(vclock.FromDuration(*gap))
	more, err := clocksync.Exchange(src, clocks, ref, lan, rng, exch)
	if err != nil {
		log.Fatal(err)
	}
	msgs = append(msgs, more...)

	// One buffered writer carries the stamps and the ground-truth trailer,
	// so a failed write anywhere surfaces at Flush; the file's Close is
	// checked too — exiting 0 on a short write would hand alphabeta a
	// truncated file.
	err = writeOutput(*outPath, func(out io.Writer) error {
		w := bufio.NewWriter(out)
		if err := clocksync.EncodeTimestamps(w, msgs); err != nil {
			return err
		}
		fmt.Fprintf(w, "# reference %s\n", ref)
		for _, h := range hosts {
			fmt.Fprintf(w, "# truth %s offset=%dns drift=%+gppm\n", h, truth[h].Offset, truth[h].DriftPPM)
		}
		return w.Flush()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d messages for %d hosts\n", len(msgs), len(hosts))
}

// alphabeta computes bounds on every host clock's offset (alpha) and drift
// (beta) relative to the reference machine, from a timestamps file of
// synchronization messages — the thesis's
//
//	alphabeta <TimestampsFile> <MachinesFile> <AlphabetaFile> <MHzFile>
//
// step (§5.7), using the convex-hull algorithm of §2.5. The MHz file is
// not needed here: the virtual testbed's clocks share a nanosecond base,
// so the fastest-machine unit conversion the thesis required disappears.
func alphabeta(fs *flag.FlagSet, args []string) {
	var (
		stampsPath = fs.String("stamps", "", "timestamps file from getstamps or lokirun runtime (required)")
		ref        = fs.String("ref", "", "reference host (default: first host alphabetically)")
		outPath    = fs.String("out", "", "alphabeta output file (default: stdout)")
	)
	fs.Parse(args)
	if *stampsPath == "" {
		usage(fs, "")
	}

	var msgs []clocksync.StampedMessage
	readFile(*stampsPath, func(r io.Reader) (err error) { msgs, err = clocksync.DecodeTimestamps(r); return err })
	if len(msgs) == 0 {
		log.Fatal("timestamps file contains no messages")
	}
	reference := *ref
	if reference == "" {
		var err error
		if reference, err = clocksync.ChooseReference(msgs); err != nil {
			log.Fatal(err)
		}
	}
	bounds, err := clocksync.EstimateAll(msgs, reference)
	if err != nil {
		log.Fatal(err)
	}

	if err := writeOutput(*outPath, func(w io.Writer) error { return clocksync.EncodeAlphaBeta(w, reference, bounds) }); err != nil {
		log.Fatal(err)
	}
	for _, host := range clocksync.Hosts(msgs) {
		b := bounds[host]
		fmt.Fprintf(os.Stderr, "%s: alpha width %.1f µs, beta width %.3g\n",
			host, b.AlphaWidth()/1000, b.BetaWidth())
	}
}

// makeglobal places the local timelines of one experiment onto a single
// global timeline and verifies the correctness of every fault injection —
// the thesis's
//
//	makeglobal <AlphabetaFile> <MHzFile> <GlobalTimelineFile>
//	           <LocalTimelineFile 1> <FaultInjectionResultsFile 1> ...
//
// step (§5.7). Injection verdicts go to stderr, and to the exit status: 1
// when any injection is unprovable, so scripted campaigns can discard the
// experiment (§2.5).
func makeglobal(fs *flag.FlagSet, args []string) {
	var (
		abPath  = fs.String("alphabeta", "", "alphabeta bounds file (required)")
		outPath = fs.String("out", "", "global timeline output file (default: stdout)")
		require = fs.Bool("require-triggered", false, "also reject experiments whose provably-triggered faults never injected")
	)
	fs.Parse(args)
	if *abPath == "" || fs.NArg() == 0 {
		usage(fs, "")
	}

	var ref string
	var bounds map[string]clocksync.Bounds
	readFile(*abPath, func(r io.Reader) (err error) { ref, bounds, err = clocksync.DecodeAlphaBeta(r); return err })
	locals := decodeFiles(fs.Args(), timeline.Decode)

	g, err := analysis.Build(ref, bounds, locals)
	if err != nil {
		log.Fatal(err)
	}
	// The output is closed, and its close error checked, before the exit
	// status is decided: os.Exit below skips deferred calls.
	if err := writeOutput(*outPath, func(w io.Writer) error { return analysis.Encode(w, g) }); err != nil {
		log.Fatal(err)
	}

	report := analysis.CheckExperiment(g, analysis.SpecsFromLocals(locals),
		analysis.CheckOptions{RequireTriggered: *require})
	for _, chk := range report.Injections {
		fmt.Fprintf(os.Stderr, "injection %s on %s at %v: correct=%v (%s)\n",
			chk.Fault, chk.Machine, chk.At, chk.Correct, chk.Reason)
	}
	for _, miss := range report.MissingFaults {
		fmt.Fprintf(os.Stderr, "expected but missing: %s\n", miss)
	}
	if !report.Accepted {
		fmt.Fprintln(os.Stderr, "experiment REJECTED: discard from measure estimation")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "experiment accepted")
}

// measureTool evaluates a study measure over global timeline files and
// reports the estimated statistics — the thesis's measure estimation
// phase (Chapter 4) as a tool. A measure is an ordered sequence of
// (subset selection, predicate, observation function) triples, given as
// repeated -triple flags:
//
//	lokirun measure \
//	  -triple 'default ; (black, CRASH) ; total_duration(T, START_EXP, END_EXP)' \
//	  -triple '(OBS_VALUE > 0) ; (black, RESTART_SM) ; total_duration(T, START_EXP, END_EXP)' \
//	  exp000/global.timeline exp001/global.timeline ...
//
// Each experiment surviving every subset selection contributes its final
// observation value; the tool prints the values and their simple-sampling
// statistics (mean, variance, skewness, kurtosis, percentiles).
func measureTool(fs *flag.FlagSet, args []string) {
	var triples []string
	fs.Func("triple", "'<selector> ; <predicate> ; <observation>' (repeatable, in order)", func(v string) error {
		triples = append(triples, v)
		return nil
	})
	name := fs.String("name", "measure", "measure name for the report")
	fs.Parse(args)
	if len(triples) == 0 || fs.NArg() == 0 {
		usage(fs, "")
	}

	var parsed []measure.Triple
	for i, src := range triples {
		parts := strings.Split(src, ";")
		if len(parts) != 3 {
			log.Fatalf("triple %d: want '<selector> ; <predicate> ; <observation>', got %q", i, src)
		}
		t, err := measure.ParseTriple(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2]))
		if err != nil {
			log.Fatalf("triple %d: %v", i, err)
		}
		parsed = append(parsed, t)
	}
	m, err := measure.NewStudyMeasure(*name, parsed...)
	if err != nil {
		log.Fatal(err)
	}
	globals := decodeFiles(fs.Args(), analysis.Decode)

	values := m.ApplyAll(globals)
	fmt.Printf("measure %s over %d experiments (%d selected)\n", *name, len(globals), len(values))
	for i, v := range values {
		fmt.Printf("  value %d: %g\n", i, v)
	}
	if len(values) == 0 {
		fmt.Println("no experiment survived the subset selections")
		return
	}
	stats := measure.ComputeMoments(values)
	fmt.Printf("mean      %.6g\n", stats.Mean())
	fmt.Printf("variance  %.6g\n", stats.Variance())
	fmt.Printf("skewness  %.6g (beta1 %.6g)\n", stats.Skew(), stats.Beta1)
	fmt.Printf("kurtosis  %.6g (beta2 %.6g)\n", stats.ExcessKurtosis(), stats.Beta2)
	if stats.Variance() > 0 {
		for _, gamma := range []float64{0.05, 0.5, 0.95} {
			if p, err := stats.Percentile(gamma); err == nil {
				fmt.Printf("p%02.0f       %.6g\n", gamma*100, p)
			}
		}
	}
}
