// Command alphabeta computes bounds on every host clock's offset (alpha)
// and drift (beta) relative to the reference machine, from a timestamps
// file of synchronization messages — the thesis's
//
//	alphabeta <TimestampsFile> <MachinesFile> <AlphabetaFile> <MHzFile>
//
// step (§5.7), using the convex-hull algorithm of §2.5. The MHz file is
// not needed here: the virtual testbed's clocks share a nanosecond base,
// so the fastest-machine unit conversion the thesis required disappears.
//
// Usage:
//
//	alphabeta -stamps timestamps.txt [-ref host] [-out alphabeta.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/clocksync"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("alphabeta: ")
	var (
		stampsPath = flag.String("stamps", "", "timestamps file from getstamps/lokid (required)")
		ref        = flag.String("ref", "", "reference host (default: first host alphabetically)")
		outPath    = flag.String("out", "", "alphabeta output file (default: stdout)")
	)
	flag.Parse()
	if *stampsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*stampsPath)
	if err != nil {
		log.Fatal(err)
	}
	msgs, err := clocksync.DecodeTimestamps(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if len(msgs) == 0 {
		log.Fatal("timestamps file contains no messages")
	}
	reference := *ref
	if reference == "" {
		if reference, err = clocksync.ChooseReference(msgs); err != nil {
			log.Fatal(err)
		}
	}
	bounds, err := clocksync.EstimateAll(msgs, reference)
	if err != nil {
		log.Fatal(err)
	}

	encode := func(w io.Writer) error { return clocksync.EncodeAlphaBeta(w, reference, bounds) }
	if *outPath == "" {
		err = encode(os.Stdout)
	} else {
		err = obs.WriteArtifact(*outPath, 0o666, encode)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, host := range clocksync.Hosts(msgs) {
		b := bounds[host]
		fmt.Fprintf(os.Stderr, "%s: alpha width %.1f µs, beta width %.3g\n",
			host, b.AlphaWidth()/1000, b.BetaWidth())
	}
}
