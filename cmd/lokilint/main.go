// Command lokilint runs Loki's static-analysis suite (internal/lint): six
// type-aware analyzers enforcing the determinism, virtual-time, and SPI
// contracts. It replaces the old grep guardrail scripts, which could not
// see through import aliases, dot-imports, or wrappers.
//
// It takes package patterns, ./... when none are given (the CI gate):
//
//	go run ./cmd/lokilint ./...
//
// Exit status is 0 when clean, 2 when any analyzer reports a finding, and
// 1 on driver errors (unparseable source, type-check failure). Findings
// print as file:line:col: message [analyzer], one per line, with suggested
// fixes indented beneath. Suppress a finding with a justified directive on
// or directly above the offending line:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lokilint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(wd, patterns)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lokilint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lokilint:", err)
	os.Exit(1)
}
