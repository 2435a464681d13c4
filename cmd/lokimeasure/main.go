// Command lokimeasure evaluates a study measure over global timeline files
// and reports the estimated statistics — the thesis's measure estimation
// phase (Chapter 4) as a tool. A measure is an ordered sequence of
// (subset selection, predicate, observation function) triples, given here
// as repeated -triple flags:
//
//	lokimeasure \
//	  -triple 'default ; (black, CRASH) ; total_duration(T, START_EXP, END_EXP)' \
//	  -triple '(OBS_VALUE > 0) ; (black, RESTART_SM) ; total_duration(T, START_EXP, END_EXP)' \
//	  exp000/global.timeline exp001/global.timeline ...
//
// Each experiment surviving every subset selection contributes its final
// observation value; the tool prints the values and their simple-sampling
// statistics (mean, variance, skewness, kurtosis, percentiles).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/measure"
)

type tripleFlags []string

func (t *tripleFlags) String() string { return strings.Join(*t, " | ") }

func (t *tripleFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lokimeasure: ")
	var triples tripleFlags
	flag.Var(&triples, "triple", "'<selector> ; <predicate> ; <observation>' (repeatable, in order)")
	name := flag.String("name", "measure", "measure name for the report")
	flag.Parse()
	if len(triples) == 0 || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var parsed []measure.Triple
	for i, src := range triples {
		parts := strings.Split(src, ";")
		if len(parts) != 3 {
			log.Fatalf("triple %d: want '<selector> ; <predicate> ; <observation>', got %q", i, src)
		}
		t, err := measure.ParseTriple(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2]))
		if err != nil {
			log.Fatalf("triple %d: %v", i, err)
		}
		parsed = append(parsed, t)
	}
	m, err := measure.NewStudyMeasure(*name, parsed...)
	if err != nil {
		log.Fatal(err)
	}

	var globals []*analysis.Global
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		g, err := analysis.Decode(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		globals = append(globals, g)
	}

	values := m.ApplyAll(globals)
	fmt.Printf("measure %s over %d experiments (%d selected)\n", *name, len(globals), len(values))
	for i, v := range values {
		fmt.Printf("  value %d: %g\n", i, v)
	}
	if len(values) == 0 {
		fmt.Println("no experiment survived the subset selections")
		return
	}
	stats := measure.ComputeMoments(values)
	fmt.Printf("mean      %.6g\n", stats.Mean())
	fmt.Printf("variance  %.6g\n", stats.Variance())
	fmt.Printf("skewness  %.6g (beta1 %.6g)\n", stats.Skew(), stats.Beta1)
	fmt.Printf("kurtosis  %.6g (beta2 %.6g)\n", stats.ExcessKurtosis(), stats.Beta2)
	if stats.Variance() > 0 {
		for _, gamma := range []float64{0.05, 0.5, 0.95} {
			if p, err := stats.Percentile(gamma); err == nil {
				fmt.Printf("p%02.0f       %.6g\n", gamma*100, p)
			}
		}
	}
}
