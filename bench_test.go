// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one benchmark per figure, printing the same
// rows/series the paper plots. Simulation figures (Figs 2, 3, 6-14) run on
// the flow-level simulator at the paper's full (1,024-server) scale — the
// incremental allocator made full-scale regeneration cheaper than the old
// medium-scale default; testbed figures (Figs 15-26) run on the emulated
// testbed. A single iteration of each benchmark regenerates the whole
// figure, so -benchtime is typically left at its default (every benchmark
// runs once).
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper-vs-measured comparison for every entry.
package bench

import (
	"testing"
	"time"

	"netagg/internal/figures"
	"netagg/internal/metrics"
	"netagg/internal/tbfig"
)

// simOpts runs the simulation figures at the benchmark default scale:
// ScaleFull, the paper's 1,024 servers. Tests and the CI bench smoke stay
// on ScaleSmall.
var simOpts = figures.Options{Scale: figures.ScaleFull, Seed: 1}

// tbOpts shortens the per-point measurement window slightly so the full
// testbed suite stays in the minutes range.
var tbOpts = tbfig.Options{Window: 2 * time.Second, Seed: 1}

// runSimFig regenerates one simulation figure per iteration and logs it.
func runSimFig(b *testing.B, fn func(figures.Options) *metrics.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := fn(simOpts)
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// runTbFig regenerates one testbed figure per iteration and logs it.
func runTbFig(b *testing.B, fn func(tbfig.Options) *metrics.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := fn(tbOpts)
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// --- Feasibility study (§2.4) ---

func BenchmarkFig02BoxRate(b *testing.B)  { runSimFig(b, figures.Fig02) }
func BenchmarkFig03CostPerf(b *testing.B) { runSimFig(b, figures.Fig03) }

// --- Simulation results (§4.1) ---

func BenchmarkFig06FCTAll(b *testing.B)        { runSimFig(b, figures.Fig06) }
func BenchmarkFig07FCTBackground(b *testing.B) { runSimFig(b, figures.Fig07) }
func BenchmarkFig08OutputRatio(b *testing.B)   { runSimFig(b, figures.Fig08) }
func BenchmarkFig09LinkTraffic(b *testing.B)   { runSimFig(b, figures.Fig09) }
func BenchmarkFig10AggFraction(b *testing.B)   { runSimFig(b, figures.Fig10) }
func BenchmarkFig11Oversub(b *testing.B)       { runSimFig(b, figures.Fig11) }
func BenchmarkFig12PartialDeploy(b *testing.B) { runSimFig(b, figures.Fig12) }
func BenchmarkFig13TenGig(b *testing.B)        { runSimFig(b, figures.Fig13) }
func BenchmarkFig14Stragglers(b *testing.B)    { runSimFig(b, figures.Fig14) }

// --- Implementation effort (Table 1) ---

func BenchmarkTab01Loc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := tbfig.Tab01()
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// --- Testbed results (§4.2) ---

func BenchmarkFig15LocalTree(b *testing.B)         { runTbFig(b, tbfig.Fig15) }
func BenchmarkFig16SolrThroughput(b *testing.B)    { runTbFig(b, tbfig.Fig16) }
func BenchmarkFig17SolrLatency(b *testing.B)       { runTbFig(b, tbfig.Fig17) }
func BenchmarkFig18SolrOutputRatio(b *testing.B)   { runTbFig(b, tbfig.Fig18) }
func BenchmarkFig19TwoRack(b *testing.B)           { runTbFig(b, tbfig.Fig19) }
func BenchmarkFig20ScaleOut(b *testing.B)          { runTbFig(b, tbfig.Fig20) }
func BenchmarkFig21ScaleUp(b *testing.B)           { runTbFig(b, tbfig.Fig21) }
func BenchmarkFig22Hadoop(b *testing.B)            { runTbFig(b, tbfig.Fig22) }
func BenchmarkFig23HadoopOutputRatio(b *testing.B) { runTbFig(b, tbfig.Fig23) }
func BenchmarkFig24HadoopDataSize(b *testing.B)    { runTbFig(b, tbfig.Fig24) }
func BenchmarkFig25FixedWFQ(b *testing.B)          { runTbFig(b, tbfig.Fig25) }
func BenchmarkFig26AdaptiveWFQ(b *testing.B)       { runTbFig(b, tbfig.Fig26) }

// tbfigExtFanout indirects the extension experiment so the ablation file
// stays free of direct figure imports.
func tbfigExtFanout() *metrics.Report { return tbfig.ExtFanout(tbOpts) }
