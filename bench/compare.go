package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one compared metric.
const (
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// sampleSpread is a sample's interquartile distance as a share of its
// median: the run-to-run noise the run itself saw.
func sampleSpread(s Sample) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// judge compares one metric of one workload between a baseline a and a
// candidate b. Exact metrics (simulated statistics, per-experiment counts
// — only meaningful when both runs had the same inputs) must be equal.
// Bounded ones are worse when the candidate's median is worse than the
// baseline's by more than the bound, and unresolved — neither worse nor
// unchanged — when either side's own spread is wider than the bound.
func judge(m metricDef, workload string, sameInputs bool, a, b Sample) (verdict string, worseBy float64) {
	if sameInputs && m.exactOn(workload) {
		if a.Value == b.Value {
			return verdictUnchanged, 0
		}
		return verdictWorse, math.NaN()
	}
	switch {
	case a.Value == b.Value:
		return verdictUnchanged, 0
	case a.Value == 0:
		// No baseline to take a share of: any move in the bad direction
		// from zero is a regression.
		if (b.Value > 0) == (m.Better == "lower") {
			return verdictWorse, math.Inf(1)
		}
		return verdictUnchanged, 0
	}
	worseBy = (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if sampleSpread(a) > m.Bound || sampleSpread(b) > m.Bound {
		return verdictUnresolved, worseBy
	}
	if worseBy > m.Bound {
		return verdictWorse, worseBy
	}
	return verdictUnchanged, worseBy
}

// compareFiles prints one row per end-to-end metric and workload, then
// the per-layer metrics that must match exactly, and returns non-zero when
// anything is worse.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	var a, b File
	for _, in := range []struct {
		path string
		file *File
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.file); err != nil {
			fmt.Fprintln(stderr, "lokibench:", err)
			return 2
		}
	}
	worse := compare(stdout, a, b)
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worse)
		return 1
	}
	return 0
}

func compare(w io.Writer, a, b File) (worse int) {
	sameInputs := a.Env.Seed == b.Env.Seed && a.Env.Scale == b.Env.Scale
	fmt.Fprintf(w, "A: commit %s seed %d scale %g %s fs=%s\n", a.Env.Commit, a.Env.Seed, a.Env.Scale, a.Env.GoVersion, a.Env.Filesystem)
	fmt.Fprintf(w, "B: commit %s seed %d scale %g %s fs=%s\n", b.Env.Commit, b.Env.Seed, b.Env.Scale, b.Env.GoVersion, b.Env.Filesystem)
	if !sameInputs {
		fmt.Fprintln(w, "inputs differ (seed or scale): exact-match metrics are compared by their bounds only")
	}
	fmt.Fprintf(w, "%-17s %-38s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	byName := map[string]WorkloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	row := func(workload string, m metricDef, sa, sb Sample) {
		verdict, by := judge(m, workload, sameInputs, sa, sb)
		if verdict == verdictWorse {
			worse++
		}
		bound := fmt.Sprintf("%.1f%%", 100*m.Bound)
		if sameInputs && m.exactOn(workload) {
			bound = "exact"
		}
		fmt.Fprintf(w, "%-17s %-38s %14.6g %14.6g %8.1f%% %7s  %s\n", workload, m.Name, sa.Value, sb.Value, 100*by, bound, verdict)
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.Untraced == nil || wb.Untraced == nil {
			fmt.Fprintf(w, "%-17s missing from one side\n", wa.Name)
			worse++
			continue
		}
		if sameInputs && lookupWorkload(wa.Name).virtual && wa.Untraced.Verdicts != wb.Untraced.Verdicts {
			fmt.Fprintf(w, "%-17s verdict vectors differ (%s, %s): worse\n", wa.Name, wa.Untraced.Verdicts, wb.Untraced.Verdicts)
			worse++
		}
		for _, m := range metricCatalogue {
			if m.Kind == perLayer {
				continue
			}
			sa, okA := wa.Untraced.Metrics[m.Name]
			sb, okB := wb.Untraced.Metrics[m.Name]
			if okA && okB {
				row(wa.Name, m, sa, sb)
			}
		}
		if !sameInputs || wa.Traced == nil || wb.Traced == nil {
			continue
		}
		for _, m := range metricsOf(perLayer) {
			if !m.exactOn(wa.Name) {
				continue
			}
			sa, sb := wa.Traced.Metrics[m.Name], wb.Traced.Metrics[m.Name]
			if sa.Value != sb.Value {
				row(wa.Name, m, sa, sb)
			}
		}
	}
	return worse
}
