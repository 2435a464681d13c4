// Command getstamps produces a timestamps file of synchronization
// messages — the thesis's
//
//	getstamps <MachinesFile> <NumberOfSyncMsgs> <TimeBetweenSyncMsgs>
//	          <PortNumber> <TimestampsFile>
//
// step (§5.6), on a simulated LAN: every host gets a hidden clock error
// (seeded), messages take an exponential-over-floor one-way delay, and
// both mini-phases (before/after a configurable experiment gap)
// are emitted. The hidden ground truth is appended as comments so the
// alphabeta bounds can be checked by eye.
//
// Usage:
//
//	getstamps -machines machines.txt [-count 20] [-spacing 1ms]
//	          [-gap 30s] [-seed 1] [-out timestamps.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/clocksync"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/vclock"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("getstamps: ")
	var (
		machinesPath = flag.String("machines", "", "machines file (one host per line; required)")
		count        = flag.Int("count", 20, "sync round trips per host pair per mini-phase")
		spacing      = flag.Duration("spacing", time.Millisecond, "virtual time between messages")
		gap          = flag.Duration("gap", 30*time.Second, "virtual experiment duration between the two mini-phases")
		seed         = flag.Int64("seed", 1, "seed for hidden clock errors and latencies")
		outPath      = flag.String("out", "", "timestamps output file (default: stdout)")
	)
	flag.Parse()
	if *machinesPath == "" {
		flag.Usage()
		os.Exit(2)
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

	out := os.Stdout
	if *outPath != "" {
		out, err = os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	// One buffered writer carries the stamps and the ground-truth trailer,
	// so a failed write anywhere surfaces at Flush; Close is checked too —
	// exiting 0 on a short write would hand alphabeta a truncated file.
	w := bufio.NewWriter(out)
	if err := clocksync.EncodeTimestamps(w, msgs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "# reference %s\n", ref)
	for _, h := range hosts {
		fmt.Fprintf(w, "# truth %s offset=%dns drift=%+gppm\n", h, truth[h].Offset, truth[h].DriftPPM)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if *outPath != "" {
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d messages for %d hosts\n", len(msgs), len(hosts))
}
