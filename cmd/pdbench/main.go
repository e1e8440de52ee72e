// Command pdbench regenerates the paper's figures and worked examples
// (E01–E10) and runs the synthetic evaluation suite (S01–S05, A01–A02).
//
// Usage:
//
//	pdbench [-exp all|paper|s01|s02|s03|s04|s05|a01|a02] [-entities n] [-seed n]
//
// The E-experiments print the exact quantities of the paper's figures next
// to the measured values; the S- and A-experiments print the evaluation
// tables recorded in EXPERIMENTS.md. Performance is measured elsewhere:
// bench/ is the repository's one benchmark (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"probdedup/internal/experiments"
)

// synthetic lists the S- and A-experiments in the order -exp all runs
// them; each renders its table for a corpus size and generator seed.
var synthetic = []struct {
	name string
	run  func(entities int, seed int64) string
}{
	{"s01", func(n int, seed int64) string { _, out := experiments.S01(n, seed); return out }},
	{"s02", func(n int, seed int64) string { _, out := experiments.S02(n, seed); return out }},
	{"s03", func(n int, seed int64) string { _, out := experiments.S03(n/2, seed); return out }},
	{"s04", func(_ int, seed int64) string { _, out := experiments.S04([]int{100, 200, 400, 800}, seed); return out }},
	{"s05", func(n int, seed int64) string { _, out := experiments.S05(n, seed); return out }},
	{"a01", func(n int, seed int64) string { _, out := experiments.A01(n, seed); return out }},
	{"a02", func(n int, seed int64) string { _, out := experiments.A02(n, seed); return out }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; separated from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, paper, s01, s02, s03, s04, s05, a01, a02")
	entities := fs.Int("entities", 150, "entities in the synthetic corpus")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all, ran := *exp == "all", false
	if all || *exp == "paper" {
		fmt.Fprintln(stdout, experiments.AllPaperExperiments())
		ran = true
	}
	for _, e := range synthetic {
		if all || *exp == e.name {
			fmt.Fprintln(stdout, e.run(*entities, *seed))
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "pdbench: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}
