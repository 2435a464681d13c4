package clocksync

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/vclock"
)

// This file defines the on-disk formats for the two artifacts the thesis's
// analysis pipeline passes between tools (§5.6–5.7): the timestamps file
// written by getstamps and read by alphabeta, and the alphabeta file written
// by alphabeta and read by makeglobal. The thesis names the files but not
// their grammar; the formats here are line-oriented to match the rest of
// Loki's file formats.

// EncodeTimestamps writes stamped messages, one per line:
//
//	<sendHost> <recvHost> <sendTicks> <recvTicks>
//
// AppendTimestamps is the encoder; EncodeTimestamps appends into w's
// AvailableBuffer when w has one and writes the text with one Write.
func EncodeTimestamps(w io.Writer, msgs []StampedMessage) error {
	_, err := w.Write(AppendTimestamps(availableBuffer(w), msgs))
	return err
}

// AppendTimestamps appends the timestamps file text of msgs to dst and
// returns the extended slice.
func AppendTimestamps(dst []byte, msgs []StampedMessage) []byte {
	for _, m := range msgs {
		dst = append(dst, m.SendHost...)
		dst = append(dst, ' ')
		dst = append(dst, m.RecvHost...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(m.SendTime), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(m.RecvTime), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// DecodeTimestamps parses the timestamps file format.
func DecodeTimestamps(r io.Reader) ([]StampedMessage, error) {
	var out []StampedMessage
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("clocksync: timestamps line %d: want 4 fields, got %q", lineNo, line)
		}
		send, err1 := strconv.ParseInt(fields[2], 10, 64)
		recv, err2 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("clocksync: timestamps line %d: bad ticks in %q", lineNo, line)
		}
		out = append(out, StampedMessage{
			SendHost: fields[0], RecvHost: fields[1],
			SendTime: vclock.Ticks(send), RecvTime: vclock.Ticks(recv),
		})
	}
	return out, sc.Err()
}

// EncodeAlphaBeta writes per-host bounds relative to the named reference:
//
//	reference <host>
//	<host> <alphaLo> <alphaHi> <betaLo> <betaHi>
//
// AppendAlphaBeta is the encoder; EncodeAlphaBeta appends into w's
// AvailableBuffer when w has one and writes the text with one Write.
func EncodeAlphaBeta(w io.Writer, ref string, bounds map[string]Bounds) error {
	_, err := w.Write(AppendAlphaBeta(availableBuffer(w), ref, bounds))
	return err
}

// AppendAlphaBeta appends the alphabeta file text to dst, hosts in sorted
// order, and returns the extended slice. Each bound is written as %.17g
// writes it, which ParseFloat reads back to the same bits.
func AppendAlphaBeta(dst []byte, ref string, bounds map[string]Bounds) []byte {
	dst = append(dst, "reference "...)
	dst = append(dst, ref...)
	dst = append(dst, '\n')
	var onStack [8]string // a campaign's hosts fit; more spill to the heap
	hosts := onStack[:0]
	for h := range bounds {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	for _, h := range hosts {
		b := bounds[h]
		dst = append(dst, h...)
		for _, v := range [4]float64{b.AlphaLo, b.AlphaHi, b.BetaLo, b.BetaHi} {
			dst = append(dst, ' ')
			dst = strconv.AppendFloat(dst, v, 'g', 17, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// availableBuffer returns w's unused buffer capacity, empty, when w offers
// it (bufio.Writer, bytes.Buffer), and nil otherwise. (internal/analysis
// and internal/timeline keep the same helper.)
func availableBuffer(w io.Writer) []byte {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return ab.AvailableBuffer()
	}
	return nil
}

// DecodeAlphaBeta parses the alphabeta file format, returning the reference
// host name and the per-host bounds.
func DecodeAlphaBeta(r io.Reader) (ref string, bounds map[string]Bounds, err error) {
	bounds = make(map[string]Bounds)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "reference" {
			if len(fields) != 2 {
				return "", nil, fmt.Errorf("clocksync: alphabeta line %d: bad reference line %q", lineNo, line)
			}
			ref = fields[1]
			continue
		}
		if len(fields) != 5 {
			return "", nil, fmt.Errorf("clocksync: alphabeta line %d: want 5 fields, got %q", lineNo, line)
		}
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return "", nil, fmt.Errorf("clocksync: alphabeta line %d: bad number %q", lineNo, fields[i+1])
			}
			vals[i] = v
		}
		bounds[fields[0]] = Bounds{AlphaLo: vals[0], AlphaHi: vals[1], BetaLo: vals[2], BetaHi: vals[3]}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	if ref == "" {
		return "", nil, fmt.Errorf("clocksync: alphabeta file missing reference line")
	}
	return ref, bounds, nil
}
