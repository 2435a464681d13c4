package campaign

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/analysis"
	"repro/internal/clocksync"
)

// recordEncoder writes a record line's body: byte for byte what
// json.Marshal(&journalRecord[*ExperimentRecord]{...}) writes under go1.24's
// encoding/json — fields in declaration order, omitempty, null for a nil
// slice or pointer, map keys sorted by strings.Compare, HTML-safe string
// escaping, and floatEncoder's number format — with no reflection and, warm,
// no allocation (FuzzRecordEncoderMatchesEncodingJSON). It refuses what
// json.Marshal refuses: a NaN or infinite float and a local timeline that
// does not validate. The strict decoder (lineDecoder) reads what it writes.
//
// text is the scratch the timelines' AppendText writes into before the text
// is escaped into the line, keys the scratch of a map's sorted keys. An
// encoder belongs to its journal and is used under cmu.
type recordEncoder struct {
	text []byte
	keys []string
}

// appendRecord appends r's record body to dst; r.Experiment is not nil. On
// an error the bytes appended past len(dst) are garbage; the caller drops
// them.
func (w *recordEncoder) appendRecord(dst []byte, r *journalRecord[*ExperimentRecord]) ([]byte, error) {
	dst = appendString(append(dst, `{"Point":`...), r.Point)
	dst = strconv.AppendInt(append(dst, `,"Index":`...), int64(r.Index), 10)
	dst = appendString(append(dst, `,"Fingerprint":`...), r.Fingerprint)
	dst, err := w.appendExperiment(append(dst, `,"Experiment":`...), r.Experiment)
	return append(dst, '}'), err
}

// appendExperiment appends rec as an ExperimentRecord object, its
// omitempty members left out when empty.
func (w *recordEncoder) appendExperiment(dst []byte, rec *ExperimentRecord) ([]byte, error) {
	dst = appendString(append(dst, `{"Study":`...), rec.Study)
	dst = strconv.AppendInt(append(dst, `,"Index":`...), int64(rec.Index), 10)
	dst = strconv.AppendBool(append(dst, `,"Completed":`...), rec.Completed)
	dst = strconv.AppendBool(append(dst, `,"Accepted":`...), rec.Accepted)
	if len(rec.Outcomes) > 0 {
		dst = append(dst, `,"Outcomes":{`...)
		w.keys = sortedKeys(w.keys, rec.Outcomes)
		for i, k := range w.keys {
			dst = appendString(appendKey(dst, i, k), rec.Outcomes[k])
		}
		dst = append(dst, '}')
	}
	if len(rec.Bounds) > 0 {
		dst = append(dst, `,"Bounds":{`...)
		w.keys = sortedKeys(w.keys, rec.Bounds)
		for i, k := range w.keys {
			var err error
			if dst, err = appendBounds(appendKey(dst, i, k), rec.Bounds[k]); err != nil {
				return dst, fmt.Errorf("clock bounds of %q: %w", k, err)
			}
		}
		dst = append(dst, '}')
	}
	if rec.Global != nil {
		w.text, _ = rec.Global.AppendText(w.text[:0]) // it never fails
		dst = appendString(append(dst, `,"Global":`...), w.text)
	}
	if rec.Report != nil {
		dst = appendReport(append(dst, `,"Report":`...), rec.Report)
	}
	if rec.AnalysisError != "" {
		dst = appendString(append(dst, `,"AnalysisError":`...), rec.AnalysisError)
	}
	if rec.ClockStepSuspected {
		dst = append(dst, `,"ClockStepSuspected":true`...)
	}
	if len(rec.ClockStepHosts) > 0 {
		dst = appendStrings(append(dst, `,"ClockStepHosts":`...), rec.ClockStepHosts)
	}
	if len(rec.ClockStepBounds) > 0 {
		dst = append(dst, `,"ClockStepBounds":{`...)
		w.keys = sortedKeys(w.keys, rec.ClockStepBounds)
		for i, k := range w.keys {
			b := rec.ClockStepBounds[k]
			dst = strconv.AppendInt(append(appendKey(dst, i, k), `{"Lo":`...), int64(b.Lo), 10)
			dst = append(strconv.AppendInt(append(dst, `,"Hi":`...), int64(b.Hi), 10), '}')
		}
		dst = append(dst, '}')
	}
	if len(rec.Locals) > 0 {
		dst = append(dst, `,"Locals":[`...)
		for i, l := range rec.Locals {
			if i > 0 {
				dst = append(dst, ',')
			}
			if l == nil {
				dst = append(dst, "null"...)
				continue
			}
			var err error
			if w.text, err = l.AppendText(w.text[:0]); err != nil {
				return dst, fmt.Errorf("local timeline %d: %w", i, err)
			}
			dst = appendString(dst, w.text)
		}
		dst = append(dst, ']')
	}
	if len(rec.Stamps) > 0 {
		dst = append(dst, `,"Stamps":[`...)
		for i, m := range rec.Stamps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"SendHost":`...), m.SendHost)
			dst = appendString(append(dst, `,"RecvHost":`...), m.RecvHost)
			dst = strconv.AppendInt(append(dst, `,"SendTime":`...), int64(m.SendTime), 10)
			dst = append(strconv.AppendInt(append(dst, `,"RecvTime":`...), int64(m.RecvTime), 10), '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendKey appends the i-th member's key of a map object and its colon.
func appendKey(dst []byte, i int, k string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	return append(appendString(dst, k), ':')
}

// appendBounds appends b as an object of its four floats.
func appendBounds(dst []byte, b clocksync.Bounds) ([]byte, error) {
	var err error
	for _, m := range [...]struct {
		key string
		f   float64
	}{{`{"AlphaLo":`, b.AlphaLo}, {`,"AlphaHi":`, b.AlphaHi}, {`,"BetaLo":`, b.BetaLo}, {`,"BetaHi":`, b.BetaHi}} {
		if dst, err = appendFloat(append(dst, m.key...), m.f); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendReport appends r; its slices have no omitempty, so a nil one is
// null.
func appendReport(dst []byte, r *analysis.Report) []byte {
	dst = append(dst, `{"Injections":`...)
	if r.Injections == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Injections {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"Machine":`...), c.Machine)
			dst = appendString(append(dst, `,"Fault":`...), c.Fault)
			dst = strconv.AppendInt(append(dst, `,"At":{"Lo":`...), int64(c.At.Lo), 10)
			dst = strconv.AppendInt(append(dst, `,"Hi":`...), int64(c.At.Hi), 10)
			dst = strconv.AppendBool(append(dst, `},"Correct":`...), c.Correct)
			dst = append(appendString(append(dst, `,"Reason":`...), c.Reason), '}')
		}
		dst = append(dst, ']')
	}
	dst = appendStrings(append(dst, `,"MissingFaults":`...), r.MissingFaults)
	return append(strconv.AppendBool(append(dst, `,"Accepted":`...), r.Accepted), '}')
}

// appendStrings appends s as a JSON array of strings, or null when nil.
func appendStrings(dst []byte, s []string) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json's floatEncoder writes a float64:
// strconv's shortest 'f' form, or 'e' below 1e-6 and from 1e21 on with a
// two-digit negative exponent cut to one digit. NaN and ±Inf are refused.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}

// htmlSafe marks the bytes encoding/json writes as themselves in a string
// when it escapes HTML: printable ASCII and DEL, but the quote, the
// backslash, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends src as encoding/json writes a string with HTML
// escaping: \" \\ \b \f \n \r \t, \u00XX for any other byte outside
// htmlSafe, \u2028 and \u2029, and \ufffd for each byte of invalid UTF-8.
func appendString[S []byte | string](dst []byte, src S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, src[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, src[start:]...), '"')
}
