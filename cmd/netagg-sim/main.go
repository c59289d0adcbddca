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
	"time"

	"netagg/internal/figures"
	"netagg/internal/metrics"
	"netagg/internal/profiling"
)

var all = map[string]func(figures.Options) *metrics.Report{
	"fig02":   figures.Fig02,
	"fig03":   figures.Fig03,
	"fig06":   figures.Fig06,
	"fig07":   figures.Fig07,
	"fig08":   figures.Fig08,
	"fig09":   figures.Fig09,
	"fig10":   figures.Fig10,
	"fig11":   figures.Fig11,
	"fig12":   figures.Fig12,
	"fig13":   figures.Fig13,
	"fig14":   figures.Fig14,
	"planner": figures.FigPlanner,
	"replan":  figures.FigReplan,
}

var order = []string{
	"fig02", "fig03", "fig06", "fig07", "fig08",
	"fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
	"planner", "replan",
}

func main() {
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
	for _, name := range targets {
		if _, ok := all[name]; !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (have %v)\n", name, order)
			os.Exit(2)
		}
	}
	stop := prof.Start()
	for _, name := range targets {
		start := time.Now()
		report := all[name](opts)
		fmt.Print(report.String())
		fmt.Printf("(%s regenerated in %.1fs at %s scale)\n\n", report.ID, time.Since(start).Seconds(), opts.Scale)
	}
	stop()
}
