// Command benchguard compares a fresh Go benchmark run against a
// checked-in baseline artifact and fails on regressions: any benchmark
// whose mean B/op grows more than -max-growth (default 25%) or whose
// fastest ns/op grows more than -max-time-growth (default 50%) over the
// baseline's fastest exits non-zero. The time gate is deliberately looser
// than the allocation gate — wall time is noisy across machines and CI
// load, while B/op is deterministic — and compares the fastest of the
// -count runs on each side rather than the mean, because a busy host
// only ever adds time: the minimum is the reading least of it reached.
// A 1.5x slowdown of that is a real regression on any hardware.
// bench-smoke runs benchguard before overwriting the
// BENCH_*.json artifacts, so a regression breaks CI instead of silently
// re-baselining itself — the failure mode behind the 1488 B/op drift
// this tool was written to catch.
//
// Usage:
//
//	benchguard -baseline BENCH_transport.json fresh-run.txt
//
// Both inputs are raw `go test -bench -benchmem` text (the benchstat
// input format). Benchmarks present in only one file are ignored: new
// benchmarks are allowed, and retired ones don't block. A missing
// baseline file is an error, not a pass: a new artifact's first run is
// checked in by hand, so a gate never skips itself on a fresh checkout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	baselinePath := flag.String("baseline", "", "checked-in benchmark artifact to compare against")
	maxGrowth := flag.Float64("max-growth", 0.25, "maximum allowed fractional B/op growth over the baseline")
	maxTimeGrowth := flag.Float64("max-time-growth", 0.5, "maximum allowed fractional ns/op growth over the baseline")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -baseline <artifact> <fresh-run>")
		os.Exit(2)
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no benchmark results in %s", flag.Arg(0)))
	}
	failed := false
	for name, got := range fresh {
		want, ok := base[name]
		if !ok {
			continue
		}
		// An absolute slack floor keeps tiny baselines from tripping on
		// measurement granularity: 16 bytes for allocations, 1000 ns for
		// timer resolution and scheduler jitter on sub-microsecond loops.
		for _, line := range []string{
			compare(name, "B/op", got.bop, want.bop, sample.mean, *maxGrowth, 16),
			compare(name, "ns/op", got.nsop, want.nsop, sample.fastest, *maxTimeGrowth, 1000),
		} {
			if line == "" {
				continue
			}
			fmt.Println(line)
			if strings.Contains(line, "FAIL") {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// compare renders one metric's verdict line on the statistic stat picks
// from each side's readings, or "" when either side has no readings for
// the metric (old artifacts predate the ns/op gate).
func compare(name, unit string, got, want sample, stat func(sample) float64, maxGrowth, floor float64) string {
	if got.n == 0 || want.n == 0 {
		return ""
	}
	g, w := stat(got), stat(want)
	limit := w * (1 + maxGrowth)
	if limit < w+floor {
		limit = w + floor
	}
	if g > limit {
		return fmt.Sprintf("benchguard: FAIL %s: %.0f %s vs baseline %.0f %s (> %+.0f%%)",
			name, g, unit, w, unit, 100*maxGrowth)
	}
	return fmt.Sprintf("benchguard: ok   %s: %.0f %s vs baseline %.0f %s", name, g, unit, w, unit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(2)
}

// sample accumulates one metric's readings across -count repetitions.
type sample struct {
	sum, min float64
	n        int
}

func (s *sample) add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	s.sum += v
	s.n++
}

func (s sample) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// fastest is the smallest reading.
func (s sample) fastest() float64 { return s.min }

// bench holds one benchmark's readings for both guarded metrics.
type bench struct {
	bop  sample
	nsop sample
}

// parseFile extracts per-benchmark B/op and ns/op from raw
// `go test -bench` output. Lines look like:
//
//	BenchmarkTransportEcho-8   200   12052 ns/op   160 B/op   2 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so baselines travel across
// machines.
func parseFile(path string) (map[string]bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bench)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := out[name]
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b.bop.add(v)
			case "ns/op":
				b.nsop.add(v)
			}
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
