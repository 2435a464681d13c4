package report

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/campaign"
)

// WriteHTML renders the model as a self-contained report.html: inline
// CSS, no scripts, no external fetches — a file that can be attached to
// a ticket or archived with the artifacts and still render in a decade.
// One appending writer (appendHTML) builds the page and WriteHTML writes
// it in one call. Its bytes are those of the html/template renderer it
// replaced, which html_ref_test.go keeps as the test-only reference.
func (d *Data) WriteHTML(w io.Writer) error {
	_, err := w.Write(d.appendHTML(make([]byte, 0, d.sizeHint())))
	return err
}

// sizeHint estimates the page's length, so that a report of any size
// renders into one allocation; a longer page (heavily escaped names)
// grows the buffer as append does.
func (d *Data) sizeHint() int {
	n := len(htmlHead) + len(htmlStyle) + 2048
	for i := range d.Points {
		n += 160 + 2*len(d.Points[i].Point)
	}
	if h := d.Heatmap; h != nil {
		for _, c := range h.Cols {
			n += 12 + 2*len(c)
		}
		for i := range h.Rows {
			n += 32 + 2*len(h.Rows[i].Name) + 80*len(h.Rows[i].Cells)
		}
	}
	for i := range d.Phases {
		n += 160 + 2*len(d.Phases[i].Phase) + 80*len(d.Phases[i].Buckets)
	}
	n += 256 * (len(d.Members) + len(d.Transports))
	return n
}

const htmlHead = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>loki campaign report`

const htmlStyle = `</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; color: #18181b; margin: 2rem auto; max-width: 64rem; padding: 0 1rem; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; border-bottom: 1px solid #e4e4e7; padding-bottom: .3rem; }
  table { border-collapse: collapse; margin: .75rem 0; }
  th, td { border: 1px solid #e4e4e7; padding: .3rem .6rem; text-align: right; }
  th { background: #fafafa; font-weight: 600; }
  td:first-child, th:first-child { text-align: left; }
  .muted { color: #71717a; }
  .tag { display: inline-block; background: #f4f4f5; border-radius: .4rem; padding: 0 .5rem; margin-right: .4rem; font-size: .85em; }
  .bar { display: inline-block; height: .7rem; background: #6366f1; vertical-align: middle; border-radius: 2px; }
  .barrow td { border: none; padding: .1rem .6rem; }
  code { background: #f4f4f5; padding: 0 .3rem; border-radius: 3px; }
</style>
</head>
<body>
<h1>Campaign report`

// appendHTML appends the page. Every string from the model goes through
// appendEscaped; numbers are written by strconv as fmt.Sprint would
// write them. The blank lines are the ones the reference template's
// actions leave behind.
func (d *Data) appendHTML(b []byte) []byte {
	b = append(b, htmlHead...)
	if d.Campaign != "" {
		b = append(b, " — "...)
		b = appendEscaped(b, d.Campaign)
	}
	b = append(b, htmlStyle...)
	if d.Campaign != "" {
		b = append(b, ": "...)
		b = appendEscaped(b, d.Campaign)
	}
	b = append(b, "</h1>\n<p class=\"muted\">\n  "...)
	if d.Fingerprint != "" {
		b = append(b, "fingerprint <code>"...)
		b = appendEscaped(b, d.Fingerprint)
		b = append(b, "</code> ·"...)
	}
	b = append(b, "\n  sources:\n  "...)
	if d.Sources.Journal {
		b = append(b, `<span class="tag">journal</span>`...)
	}
	b = append(b, "\n  "...)
	if d.Sources.Metrics {
		b = append(b, `<span class="tag">metrics</span>`...)
	}
	b = append(b, "\n  "...)
	if d.Sources.Traces != 0 {
		b = append(b, `<span class="tag">`...)
		b = strconv.AppendInt(b, int64(d.Sources.Traces), 10)
		b = append(b, " traces</span>"...)
	}
	b = append(b, "\n</p>\n\n"...)

	if d.Sources.Journal {
		b = append(b, "\n<h2>Verdicts</h2>\n<table>\n  <tr><th>point</th><th>experiments</th><th>accepted</th><th>rejected</th><th>discarded</th><th>aborted</th><th>clock-step</th><th>acceptance</th></tr>\n  "...)
		for i := range d.Points {
			p := &d.Points[i]
			b = append(b, "\n  <tr><td>"...)
			b = appendEscaped(b, p.Point)
			b = appendVerdicts(b, &p.Verdicts, "</td><td>")
			b = append(b, "</td></tr>\n  "...)
		}
		b = append(b, "\n  <tr><th>total"...)
		b = appendVerdicts(b, &d.Totals, "</th><th>")
		b = append(b, "</th></tr>\n</table>\n"...)
	}
	b = append(b, "\n\n"...)

	if h := d.Heatmap; h != nil {
		b = append(b, "\n<h2>Acceptance heatmap</h2>\n<p class=\"muted\">rows: scenarios · columns: latency profiles · cells: accepted/total over seeds</p>\n<table>\n  <tr><th></th>"...)
		for _, col := range h.Cols {
			b = append(b, "<th>"...)
			b = appendEscaped(b, col)
			b = append(b, "</th>"...)
		}
		b = append(b, "</tr>\n  "...)
		for i := range h.Rows {
			r := &h.Rows[i]
			b = append(b, "\n  <tr><td>"...)
			b = appendEscaped(b, r.Name)
			b = append(b, "</td>"...)
			for _, c := range r.Cells {
				b = append(b, `<td style="`...)
				b = appendHeatStyle(b, c)
				b = append(b, `">`...)
				b = appendHeatLabel(b, c)
				b = append(b, "</td>"...)
			}
			b = append(b, "</tr>\n  "...)
		}
		b = append(b, "\n</table>\n"...)
	}
	b = append(b, "\n\n"...)

	if len(d.Phases) > 0 {
		b = append(b, "\n<h2>Phase latencies</h2>\n<table>\n  <tr><th>phase</th><th>count</th><th>min</th><th>mean</th><th>max</th><th>distribution ("...)
		b = appendEscaped(b, strings.Join(PhaseBoundLabels(), " · "))
		b = append(b, ")</th></tr>\n  "...)
		for i := range d.Phases {
			p := &d.Phases[i]
			top := maxBucket(p.Buckets)
			b = append(b, "\n  \n  <tr>\n    <td>"...)
			b = appendEscaped(b, p.Phase)
			b = append(b, "</td><td>"...)
			b = strconv.AppendInt(b, int64(p.Count), 10)
			b = append(b, "</td><td>"...)
			b = appendNS(b, p.MinNS)
			b = append(b, "</td><td>"...)
			b = appendNS(b, p.MeanNS)
			b = append(b, "</td><td>"...)
			b = appendNS(b, p.MaxNS)
			b = append(b, "</td>\n    <td style=\"text-align:left\">"...)
			for _, v := range p.Buckets {
				b = append(b, `<span class="bar" style="width:`...)
				b = appendBarWidth(b, v, top)
				b = append(b, `px" title="`...)
				b = strconv.AppendInt(b, v, 10)
				b = append(b, `"></span> `...)
			}
			b = append(b, "</td>\n  </tr>\n  "...)
		}
		b = append(b, "\n</table>\n"...)
	}
	b = append(b, "\n\n"...)

	if len(d.Members) > 0 {
		b = append(b, "\n<h2>Member clock sync</h2>\n<p class=\"muted\">per-member process-clock alignment quality — offset and RTT from the min-RTT sync round, plus merged trace-lane volume</p>\n<table>\n  <tr><th>member</th><th>offset</th><th>rtt</th><th>rounds ok</th><th>rounds lost</th><th>trace spans</th><th>trace events</th></tr>\n  "...)
		for i := range d.Members {
			m := &d.Members[i]
			b = append(b, "\n  <tr><td>"...)
			b = appendEscaped(b, m.Member)
			b = append(b, "</td><td>"...)
			b = appendNS(b, m.ClockOffsetNS)
			b = append(b, "</td><td>"...)
			b = appendNS(b, m.ClockRTTNS)
			for _, v := range [...]uint64{m.SyncOK, m.SyncLost, m.TraceSpans, m.TraceEvents} {
				b = append(b, "</td><td>"...)
				b = strconv.AppendUint(b, v, 10)
			}
			b = append(b, "</td></tr>\n  "...)
		}
		b = append(b, "\n</table>\n"...)
	}
	b = append(b, "\n\n"...)

	if len(d.Transports) > 0 {
		b = append(b, "\n<h2>Transports</h2>\n<table>\n  <tr><th>transport</th><th>process</th><th>frames sent</th><th>frames recv</th><th>bytes sent</th><th>bytes recv</th><th>send errors</th><th>retries</th><th>sync RTT mean</th></tr>\n  "...)
		for i := range d.Transports {
			t := &d.Transports[i]
			b = append(b, "\n  <tr><td>"...)
			b = appendEscaped(b, t.Transport)
			b = append(b, "</td><td>"...)
			if t.Member != "" {
				b = appendEscaped(b, t.Member)
			} else {
				b = append(b, "coordinator"...)
			}
			b = append(b, "</td><td>"...)
			b = strconv.AppendUint(b, t.FramesSent, 10)
			b = append(b, "</td><td>"...)
			b = strconv.AppendUint(b, t.FramesRecv, 10)
			b = append(b, "</td><td>"...)
			b = appendBytes(b, t.BytesSent)
			b = append(b, "</td><td>"...)
			b = appendBytes(b, t.BytesRecv)
			b = append(b, "</td><td>"...)
			b = strconv.AppendUint(b, t.SendErrors, 10)
			b = append(b, "</td><td>"...)
			b = strconv.AppendUint(b, t.Retries, 10)
			b = append(b, "</td><td>"...)
			if t.RTTCount != 0 {
				b = appendNS(b, t.RTTMeanNS)
			} else {
				b = append(b, "–"...)
			}
			b = append(b, "</td></tr>\n  "...)
		}
		b = append(b, "\n</table>\n"...)
	}
	return append(b, "\n\n</body>\n</html>\n"...)
}

// appendVerdicts appends v's counts and acceptance, each after sep (the
// boundary between two cells of the row).
func appendVerdicts(b []byte, v *campaign.Tally, sep string) []byte {
	for _, n := range [...]int{v.Experiments, v.Accepted, v.Rejected, v.Discarded, v.Aborted, v.ClockStep} {
		b = append(b, sep...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, sep...)
	return appendPct(b, v.Accepted, v.Experiments)
}

// appendEscaped appends s with html/template's htmlReplacementTable
// applied, the table its text, RCDATA and attribute escapers share for
// plain strings. Every character it replaces is ASCII and no byte of a
// multi-byte UTF-8 sequence is, so a byte-wise scan is the template's
// rune-wise one; invalid UTF-8 and noncharacters pass through unchanged.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case 0:
			repl = "�"
		case '"':
			repl = "&#34;"
		case '&':
			repl = "&amp;"
		case '\'':
			repl = "&#39;"
		case '+':
			repl = "&#43;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, repl...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// appendNS appends a nanosecond quantity at a human scale. The magnitude
// is negated through uint64, so math.MinInt64 keeps one sign.
func appendNS(b []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		b = append(b, '-')
		u = -u
	}
	switch {
	case u >= 1e9:
		return append(strconv.AppendFloat(b, float64(u)/1e9, 'f', 2, 64), 's')
	case u >= 1e6:
		return append(strconv.AppendFloat(b, float64(u)/1e6, 'f', 2, 64), "ms"...)
	case u >= 1e3:
		return append(strconv.AppendFloat(b, float64(u)/1e3, 'f', 1, 64), "µs"...)
	default:
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	}
}

// fmtNS renders a nanosecond quantity at a human scale.
func fmtNS(ns int64) string { return string(appendNS(nil, ns)) }

// appendBytes appends a byte quantity at a human scale.
func appendBytes(b []byte, n uint64) []byte {
	switch {
	case n >= 1<<20:
		return append(strconv.AppendFloat(b, float64(n)/(1<<20), 'f', 1, 64), "MiB"...)
	case n >= 1<<10:
		return append(strconv.AppendFloat(b, float64(n)/(1<<10), 'f', 1, 64), "KiB"...)
	default:
		return append(strconv.AppendUint(b, n, 10), 'B')
	}
}

// appendHeatStyle appends an acceptance cell's style: green saturation
// tracks the acceptance rate, empty cells stay neutral. It writes only
// a number this function computes, never a name.
func appendHeatStyle(b []byte, c HeatCell) []byte {
	if c.Total == 0 {
		return append(b, "background:#f4f4f5;color:#a1a1aa"...)
	}
	rate := float64(c.Accepted) / float64(c.Total)
	b = append(b, "background:rgba(16,185,129,"...)
	return append(strconv.AppendFloat(b, 0.12+0.78*rate, 'f', 2, 64), ')')
}

func appendHeatLabel(b []byte, c HeatCell) []byte {
	if c.Total == 0 {
		return append(b, "–"...)
	}
	b = strconv.AppendInt(b, int64(c.Accepted), 10)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(c.Total), 10)
}

// appendBarWidth appends v scaled against max into a 0–100 width for
// the histogram bars, as fmt.Sprint writes a float64. A negative count
// (no trace produces one) can scale into an exponent, whose '+' the
// attribute escapes.
func appendBarWidth(b []byte, v, max int64) []byte {
	w := 0.0
	if max > 0 {
		w = 100 * float64(v) / float64(max)
	}
	var num [32]byte
	return appendEscaped(b, string(strconv.AppendFloat(num[:0], w, 'g', -1, 64)))
}

func maxBucket(buckets []int64) int64 {
	var m int64
	for _, b := range buckets {
		if b > m {
			m = b
		}
	}
	return m
}

// appendPct appends part as a percentage of whole, "–" when whole is 0.
func appendPct(b []byte, part, whole int) []byte {
	if whole == 0 {
		return append(b, "–"...)
	}
	return append(strconv.AppendFloat(b, 100*float64(part)/float64(whole), 'f', 1, 64), '%')
}
