// Command netagg-sim regenerates the paper's simulation figures (§2.4 and
// §4.1: Figs 2, 3, 6-14) on the flow-level data centre simulator and prints
// the same rows/series the paper plots, plus the repository's own planner
// and dynamic-tree experiments (EXPERIMENTS.md "planner" and "replan").
//
// Usage:
//
//	netagg-sim [-scale small|medium|full] [-seed N] [-workers N]
//	           [-cpuprofile f] [-memprofile f] [fig ...]
//
// With no figure arguments, every simulation figure is regenerated.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"netagg/internal/figures"
	"netagg/internal/metrics"
	"netagg/internal/profiling"
)

func main() {
	// The paper's numbering, which is id order: fig08 prints between two
	// figures of the CDF row.
	order := metrics.FigureIDs(figures.All)
	sort.Strings(order)

	scale := flag.String("scale", "full", "cluster scale: small (64 servers), medium (256), full (1024, the paper's)")
	seed := flag.Int64("seed", 1, "workload random seed")
	workers := flag.Int("workers", 0, "scenario fan-out parallelism (0 = GOMAXPROCS); figures are byte-identical for any value")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [fig ...]\nfigures: %v\nflags:\n", os.Args[0], order)
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := figures.Options{Seed: *seed, Workers: *workers}
	switch *scale {
	case "small":
		opts.Scale = figures.ScaleSmall
	case "medium":
		opts.Scale = figures.ScaleMedium
	case "full":
		opts.Scale = figures.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = order
	}
	stop := prof.Start()
	err := metrics.Regenerate(figures.All, targets, opts, func(r *metrics.Report, took time.Duration) {
		fmt.Print(r.String())
		fmt.Printf("(%s regenerated in %.1fs at %s scale)\n\n", r.ID, took.Seconds(), opts.Scale)
	})
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (have %v)\n", err, order)
		os.Exit(2)
	}
}
