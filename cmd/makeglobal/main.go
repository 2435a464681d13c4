// Command makeglobal places the local timelines of one experiment onto a
// single global timeline and verifies the correctness of every fault
// injection — the thesis's
//
//	makeglobal <AlphabetaFile> <MHzFile> <GlobalTimelineFile>
//	           <LocalTimelineFile 1> <FaultInjectionResultsFile 1> ...
//
// step (§5.7). Injection verdicts go to stdout (and the exit status: 1
// when any injection is unprovable, so scripted campaigns can discard the
// experiment, §2.5).
//
// Usage:
//
//	makeglobal -alphabeta alphabeta.txt [-out global.timeline]
//	           [-require-triggered] local1.timeline local2.timeline ...
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/obs"
	"repro/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("makeglobal: ")
	var (
		abPath  = flag.String("alphabeta", "", "alphabeta bounds file (required)")
		outPath = flag.String("out", "", "global timeline output file (default: stdout)")
		require = flag.Bool("require-triggered", false, "also reject experiments whose provably-triggered faults never injected")
	)
	flag.Parse()
	if *abPath == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*abPath)
	if err != nil {
		log.Fatal(err)
	}
	ref, bounds, err := clocksync.DecodeAlphaBeta(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	var locals []*timeline.Local
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		tl, err := timeline.Decode(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		locals = append(locals, tl)
	}

	g, err := analysis.Build(ref, bounds, locals)
	if err != nil {
		log.Fatal(err)
	}
	// The output is closed, and its close error checked, before the exit
	// status is decided: os.Exit below skips deferred calls.
	encode := func(w io.Writer) error { return analysis.Encode(w, g) }
	if *outPath == "" {
		err = encode(os.Stdout)
	} else {
		err = obs.WriteArtifact(*outPath, 0o666, encode)
	}
	if err != nil {
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
