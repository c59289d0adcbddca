// Command netagg-bench regenerates the paper's testbed figures (§4.2:
// Figs 15-26, plus Table 1 and the §5 fanout extension) on the emulated
// testbed — real TCP on loopback with token-bucket link emulation — and
// prints the same rows/series the paper plots.
//
// Usage:
//
//	netagg-bench [-window 3s] [-seed N] [-cpuprofile f] [-memprofile f] [fig ...]
//
// With no figure arguments, every testbed figure is regenerated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"netagg/internal/metrics"
	"netagg/internal/profiling"
	"netagg/internal/tbfig"
)

func main() {
	order := metrics.FigureIDs(tbfig.All)
	window := flag.Duration("window", 3*time.Second, "measurement window per data point")
	seed := flag.Int64("seed", 1, "query/input random seed")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [fig ...]\nfigures: %v\nflags:\n", os.Args[0], order)
		flag.PrintDefaults()
	}
	flag.Parse()

	// No signal handler: Ctrl-C's default exit ends the run at once, and
	// the process's exit closes every socket the experiments opened.
	opts := tbfig.Options{Window: *window, Seed: *seed}
	targets := flag.Args()
	if len(targets) == 0 {
		targets = order
	}
	stop := prof.Start()
	err := metrics.Regenerate(tbfig.All, targets, opts, func(r *metrics.Report, took time.Duration) {
		fmt.Print(r.String())
		fmt.Printf("(%s regenerated in %.1fs)\n\n", r.ID, took.Seconds())
	})
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (have %v)\n", err, order)
		os.Exit(2)
	}
}
