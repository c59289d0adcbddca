// Command netagg-bench regenerates the paper's testbed figures (§4.2:
// Figs 15-26) on the emulated testbed — real TCP on loopback with
// token-bucket link emulation — and prints the same rows/series the paper
// plots.
//
// Usage:
//
//	netagg-bench [-window 3s] [-seed N] [-cpuprofile f] [-memprofile f] [fig ...]
//
// With no figure arguments, every testbed figure is regenerated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netagg/internal/metrics"
	"netagg/internal/profiling"
	"netagg/internal/tbfig"
)

var all = map[string]func(tbfig.Options) *metrics.Report{
	"fig15":      tbfig.Fig15,
	"fig16":      tbfig.Fig16,
	"fig17":      tbfig.Fig17,
	"fig18":      tbfig.Fig18,
	"fig19":      tbfig.Fig19,
	"fig20":      tbfig.Fig20,
	"fig21":      tbfig.Fig21,
	"fig22":      tbfig.Fig22,
	"fig23":      tbfig.Fig23,
	"fig24":      tbfig.Fig24,
	"fig25":      tbfig.Fig25,
	"fig26":      tbfig.Fig26,
	"ext-fanout": tbfig.ExtFanout,
}

var order = []string{
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
	"fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "ext-fanout",
}

func main() {
	window := flag.Duration("window", 3*time.Second, "measurement window per data point")
	seed := flag.Int64("seed", 1, "query/input random seed")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [fig ...]\nfigures: %v\nflags:\n", os.Args[0], order)
		flag.PrintDefaults()
	}
	flag.Parse()

	// Ctrl-C tears down every testbed endpoint the experiments deploy.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts := tbfig.Options{Window: *window, Seed: *seed, Context: ctx}
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
		fmt.Printf("(%s regenerated in %.1fs)\n\n", report.ID, time.Since(start).Seconds())
	}
	stop()
}
