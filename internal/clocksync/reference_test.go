package clocksync

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// This file keeps the fmt-based encoders that AppendTimestamps and
// AppendAlphaBeta replaced, verbatim but for their names, as the
// references FuzzEncodeAlphaBeta and TestTimestampsMatchReference compare
// the appending encoders against: the two must write the same bytes.

// referenceEncodeTimestamps writes stamped messages, one per line:
//
//	<sendHost> <recvHost> <sendTicks> <recvTicks>
func referenceEncodeTimestamps(w io.Writer, msgs []StampedMessage) error {
	bw := bufio.NewWriter(w)
	for _, m := range msgs {
		fmt.Fprintf(bw, "%s %s %d %d\n", m.SendHost, m.RecvHost, int64(m.SendTime), int64(m.RecvTime))
	}
	return bw.Flush()
}

// referenceEncodeAlphaBeta writes per-host bounds relative to the named
// reference:
//
//	reference <host>
//	<host> <alphaLo> <alphaHi> <betaLo> <betaHi>
func referenceEncodeAlphaBeta(w io.Writer, ref string, bounds map[string]Bounds) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "reference %s\n", ref)
	hosts := make([]string, 0, len(bounds))
	for h := range bounds {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		b := bounds[h]
		fmt.Fprintf(bw, "%s %.17g %.17g %.17g %.17g\n", h, b.AlphaLo, b.AlphaHi, b.BetaLo, b.BetaHi)
	}
	return bw.Flush()
}
