// Command transport demonstrates the pluggable transport subsystem
// through the Session API: the same election-under-partition campaign
// file runs on the in-process bus (one runtime, direct calls), then
// clustered over UDP and TCP loopback sockets — one runtime per virtual
// host, state notifications and application-bus messages framed onto real
// sockets, chaos partitions replicated to every endpoint — and the
// accepted/rejected experiment verdicts must agree transport for
// transport. The transport is the only thing that changes between runs:
//
//	loki.Open(cfg, loki.WithTransport(kind))
//
// The clustered topology here lives in one OS process so the program is
// self-contained; lokirun's cluster flags put each endpoint in its own
// OS process with exactly the same protocol (the program prints the
// command lines).
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"
	"time"

	loki "repro"
)

//go:embed campaign.json
var campaignJSON []byte

func runOn(kind string) []bool {
	cfg, err := loki.ParseCampaignFile(campaignJSON)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	s, err := loki.Open(cfg, loki.WithTransport(kind))
	if err != nil {
		log.Fatalf("transport %s: %v", kind, err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatalf("transport %s: %v", kind, err)
	}
	sr := res.Campaign.Study("election")
	verdicts := make([]bool, len(sr.Records))
	fmt.Printf("%-6s  ", kind)
	for i, rec := range sr.Records {
		verdicts[i] = rec.Accepted
		v := "rejected"
		if rec.Accepted {
			v = "accepted"
		}
		fmt.Printf("exp%d=%s  ", i, v)
	}
	fmt.Printf("(%.2fs)\n", time.Since(start).Seconds())
	return verdicts
}

func main() {
	log.SetFlags(0)
	fmt.Println("election under netsplit, 4 experiments per transport:")
	inproc := runOn(loki.TransportInproc)
	udp := runOn(loki.TransportUDP)
	tcp := runOn(loki.TransportTCP)

	for i := range inproc {
		if inproc[i] != udp[i] || inproc[i] != tcp[i] {
			log.Fatalf("verdict divergence at experiment %d: inproc=%v udp=%v tcp=%v",
				i, inproc[i], udp[i], tcp[i])
		}
	}
	fmt.Println("verdict parity: in-process, UDP, and TCP agree on every experiment")

	fmt.Println("\nthe same study across real OS processes:")
	fmt.Println(`  lokirun -config campaign.json -transport udp \
          -name alpha -listen 127.0.0.1:7101 \
          -peers 'alpha=127.0.0.1:7101,beta=127.0.0.1:7102' \
          -owners 'h1=alpha,h2=beta,h3=beta' -out out &
  lokirun -config campaign.json -transport udp \
          -name beta -listen 127.0.0.1:7102 \
          -peers 'alpha=127.0.0.1:7101,beta=127.0.0.1:7102' \
          -owners 'h1=alpha,h2=beta,h3=beta'`)
	fmt.Println("(\"lokirun runtime\" with the same flags runs one experiment and writes its raw artifacts)")
	fmt.Println("(alpha owns the reference host, coordinates, and writes the artifacts)")
}
