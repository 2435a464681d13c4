package report

import (
	"fmt"
	"html/template"
	"strings"
)

// This file keeps the html/template renderer report.html was written by
// before appendHTML, verbatim with the fmt helpers it called: the
// reference FuzzWriteHTMLMatchesTemplate and the golden files hold the
// writer to. fmtNS, maxBucket and PhaseBoundLabels are shared with the
// writer.

// refHTML renders d through the reference template.
func refHTML(d *Data) ([]byte, error) {
	var b strings.Builder
	err := reportTmpl.Execute(&b, d)
	return []byte(b.String()), err
}

// fmtBytes renders a byte quantity at a human scale.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// heatStyle colors an acceptance cell: green saturation tracks the
// acceptance rate, empty cells stay neutral.
func heatStyle(c HeatCell) template.CSS {
	if c.Total == 0 {
		return "background:#f4f4f5;color:#a1a1aa"
	}
	rate := float64(c.Accepted) / float64(c.Total)
	return template.CSS(fmt.Sprintf("background:rgba(16,185,129,%.2f)", 0.12+0.78*rate))
}

func heatLabel(c HeatCell) string {
	if c.Total == 0 {
		return "–"
	}
	return fmt.Sprintf("%d/%d", c.Accepted, c.Total)
}

// barWidth scales a value against a maximum into a 0–100 percentage for
// the histogram bars.
func barWidth(v, max int64) float64 {
	if max <= 0 {
		return 0
	}
	return 100 * float64(v) / float64(max)
}

func pct(part, whole int) string {
	if whole == 0 {
		return "–"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

var reportTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"ns":        fmtNS,
	"bytes":     fmtBytes,
	"heatStyle": heatStyle,
	"heatLabel": heatLabel,
	"barWidth":  barWidth,
	"maxBucket": maxBucket,
	"pct":       pct,
	"labels":    PhaseBoundLabels,
	"join":      strings.Join,
}).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>loki campaign report{{with .Campaign}} — {{.}}{{end}}</title>
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
<h1>Campaign report{{with .Campaign}}: {{.}}{{end}}</h1>
<p class="muted">
  {{if .Fingerprint}}fingerprint <code>{{.Fingerprint}}</code> ·{{end}}
  sources:
  {{if .Sources.Journal}}<span class="tag">journal</span>{{end}}
  {{if .Sources.Metrics}}<span class="tag">metrics</span>{{end}}
  {{if .Sources.Traces}}<span class="tag">{{.Sources.Traces}} traces</span>{{end}}
</p>

{{if .Sources.Journal}}
<h2>Verdicts</h2>
<table>
  <tr><th>point</th><th>experiments</th><th>accepted</th><th>rejected</th><th>discarded</th><th>aborted</th><th>clock-step</th><th>acceptance</th></tr>
  {{range .Points}}
  <tr><td>{{.Point}}</td><td>{{.Verdicts.Experiments}}</td><td>{{.Verdicts.Accepted}}</td><td>{{.Verdicts.Rejected}}</td><td>{{.Verdicts.Discarded}}</td><td>{{.Verdicts.Aborted}}</td><td>{{.Verdicts.ClockStep}}</td><td>{{pct .Verdicts.Accepted .Verdicts.Experiments}}</td></tr>
  {{end}}
  <tr><th>total</th><th>{{.Totals.Experiments}}</th><th>{{.Totals.Accepted}}</th><th>{{.Totals.Rejected}}</th><th>{{.Totals.Discarded}}</th><th>{{.Totals.Aborted}}</th><th>{{.Totals.ClockStep}}</th><th>{{pct .Totals.Accepted .Totals.Experiments}}</th></tr>
</table>
{{end}}

{{with .Heatmap}}
<h2>Acceptance heatmap</h2>
<p class="muted">rows: scenarios · columns: latency profiles · cells: accepted/total over seeds</p>
<table>
  <tr><th></th>{{range .Cols}}<th>{{.}}</th>{{end}}</tr>
  {{range .Rows}}
  <tr><td>{{.Name}}</td>{{range .Cells}}<td style="{{heatStyle .}}">{{heatLabel .}}</td>{{end}}</tr>
  {{end}}
</table>
{{end}}

{{if .Phases}}
<h2>Phase latencies</h2>
<table>
  <tr><th>phase</th><th>count</th><th>min</th><th>mean</th><th>max</th><th>distribution ({{join (labels) " · "}})</th></tr>
  {{range .Phases}}
  {{$max := maxBucket .Buckets}}
  <tr>
    <td>{{.Phase}}</td><td>{{.Count}}</td><td>{{ns .MinNS}}</td><td>{{ns .MeanNS}}</td><td>{{ns .MaxNS}}</td>
    <td style="text-align:left">{{range .Buckets}}<span class="bar" style="width:{{barWidth . $max}}px" title="{{.}}"></span> {{end}}</td>
  </tr>
  {{end}}
</table>
{{end}}

{{if .Members}}
<h2>Member clock sync</h2>
<p class="muted">per-member process-clock alignment quality — offset and RTT from the min-RTT sync round, plus merged trace-lane volume</p>
<table>
  <tr><th>member</th><th>offset</th><th>rtt</th><th>rounds ok</th><th>rounds lost</th><th>trace spans</th><th>trace events</th></tr>
  {{range .Members}}
  <tr><td>{{.Member}}</td><td>{{ns .ClockOffsetNS}}</td><td>{{ns .ClockRTTNS}}</td><td>{{.SyncOK}}</td><td>{{.SyncLost}}</td><td>{{.TraceSpans}}</td><td>{{.TraceEvents}}</td></tr>
  {{end}}
</table>
{{end}}

{{if .Transports}}
<h2>Transports</h2>
<table>
  <tr><th>transport</th><th>process</th><th>frames sent</th><th>frames recv</th><th>bytes sent</th><th>bytes recv</th><th>send errors</th><th>retries</th><th>sync RTT mean</th></tr>
  {{range .Transports}}
  <tr><td>{{.Transport}}</td><td>{{if .Member}}{{.Member}}{{else}}coordinator{{end}}</td><td>{{.FramesSent}}</td><td>{{.FramesRecv}}</td><td>{{bytes .BytesSent}}</td><td>{{bytes .BytesRecv}}</td><td>{{.SendErrors}}</td><td>{{.Retries}}</td><td>{{if .RTTCount}}{{ns .RTTMeanNS}}{{else}}–{{end}}</td></tr>
  {{end}}
</table>
{{end}}

</body>
</html>
`))
