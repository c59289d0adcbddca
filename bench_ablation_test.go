// Package bench keeps the five design ablations of DESIGN.md §5 as Go
// benchmarks: each runs a design choice and its alternative once and logs
// the comparison. The paper's figures are not here — netagg-sim and
// netagg-bench regenerate those (README "Layout" says who owns which
// number).
//
//	go test -bench=Ablation -benchtime=1x
package bench

import (
	"testing"
	"time"

	"netagg/internal/core"
	"netagg/internal/simexp"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// ablationRun executes the default workload on the paper's 1,024-server
// cluster under NetAgg with the given strategy and simulator options.
func ablationRun(b *testing.B, strat strategies.Strategy, o simexp.Opts) *simexp.Result {
	b.Helper()
	topo, err := topology.BuildClos(topology.DefaultClos())
	if err != nil {
		b.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	w := workload.Generate(topo, workload.Default())
	return simexp.Run(topo, w, strat, o)
}

// BenchmarkAblationStreaming compares NetAgg's streaming (pipelined)
// aggregation against store-and-forward boxes that buffer whole inputs
// before forwarding — the design choice behind the paper's pipelined local
// aggregation trees (§3.2.1).
func BenchmarkAblationStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stream := ablationRun(b, strategies.NetAgg{}, simexp.Opts{})
		sf := ablationRun(b, strategies.NetAgg{}, simexp.Opts{StoreAndForward: true})
		if i == 0 {
			b.Logf("\njob p99 FCT: streaming %.4gms, store-and-forward %.4gms (%.2fx slower buffered)",
				stream.JobFCT.P99()*1000, sf.JobFCT.P99()*1000,
				sf.JobFCT.P99()/stream.JobFCT.P99())
		}
	}
}

// BenchmarkAblationReduceSemantics compares the paper's per-hop α reduction
// against the conservation-consistent of-original model (see the
// strategies package comment) for the headline NetAgg-vs-rack ratio.
func BenchmarkAblationReduceSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, _ := topology.BuildClos(topology.DefaultClos())
		w := workload.Generate(topo, workload.Default())
		rack := simexp.Run(topo, w, strategies.Rack{}, simexp.Opts{})
		perHop := ablationRun(b, strategies.NetAgg{Mode: strategies.ReducePerHop}, simexp.Opts{})
		original := ablationRun(b, strategies.NetAgg{Mode: strategies.ReduceOfOriginal}, simexp.Opts{})
		if i == 0 {
			b.Logf("\nnetagg/rack p99 FCT: per-hop %.3f, of-original %.3f",
				perHop.AllFCT.P99()/rack.AllFCT.P99(),
				original.AllFCT.P99()/rack.AllFCT.P99())
		}
	}
}

// BenchmarkAblationAggregationTrees varies the number of aggregation trees
// per job (§3.1 "Multiple aggregation trees per application"), reporting
// job-level completion (per-flow FCTs are not comparable across
// decompositions).
func BenchmarkAblationAggregationTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var line string
		for _, trees := range []int{1, 2, 4} {
			res := ablationRun(b, strategies.NetAgg{Trees: trees}, simexp.Opts{})
			line += " " + formatTreePoint(trees, res.JobFCT.P99())
		}
		if i == 0 {
			b.Logf("\njob p99 FCT by trees/job:%s (boxes=1/switch: trees share boxes, diversify core paths)", line)
		}
	}
}

func formatTreePoint(trees int, p99 float64) string {
	return time.Duration(p99*float64(time.Second)).Round(10*time.Microsecond).String() +
		"(x" + string(rune('0'+trees)) + ")"
}

// BenchmarkAblationMaxMinVsNaive compares the simulator's progressive
// filling max-min allocator against a naive equal-share allocator: the
// naive model under-utilises links and inflates FCTs while being cheaper
// per event.
func BenchmarkAblationMaxMinVsNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		exact := ablationRun(b, strategies.NetAgg{}, simexp.Opts{})
		exactDur := time.Since(t0)
		t0 = time.Now()
		naive := ablationRun(b, strategies.NetAgg{}, simexp.Opts{NaiveAllocation: true})
		naiveDur := time.Since(t0)
		if i == 0 {
			b.Logf("\nmax-min: p99=%.4gms wall=%v; naive: p99=%.4gms wall=%v (naive inflates FCT %.2fx)",
				exact.AllFCT.P99()*1000, exactDur.Round(time.Millisecond),
				naive.AllFCT.P99()*1000, naiveDur.Round(time.Millisecond),
				naive.AllFCT.P99()/exact.AllFCT.P99())
		}
	}
}

// BenchmarkAblationAdaptiveWFQ quantifies the fairness error of fixed
// versus adaptive weighted fair queuing under the Solr/Hadoop task-length
// asymmetry (Figs 25-26): the deviation of the long-task app's CPU share
// from its 50% target.
func BenchmarkAblationAdaptiveWFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixedDev := wfqShareDeviation(false)
		adaptiveDev := wfqShareDeviation(true)
		if i == 0 {
			b.Logf("\nCPU-share deviation from 50%% target: fixed WFQ %.1f%%, adaptive WFQ %.1f%%",
				fixedDev, adaptiveDev)
		}
	}
}

// wfqShareDeviation measures |solr share − 50| with both apps backlogged.
func wfqShareDeviation(adaptive bool) float64 {
	sched := core.NewScheduler(core.SchedulerConfig{Workers: 4, Adaptive: adaptive, Seed: 1})
	defer sched.CloseNow()
	sched.Register("solr", 1)
	sched.Register("hadoop", 1)
	for i := 0; i < 3000; i++ {
		sched.Submit("solr", func() { time.Sleep(10 * time.Millisecond) })
		for j := 0; j < 4; j++ {
			sched.Submit("hadoop", func() { time.Sleep(time.Millisecond) })
		}
	}
	time.Sleep(800 * time.Millisecond)
	solr := sched.CPUTime("solr").Seconds()
	hadoop := sched.CPUTime("hadoop").Seconds()
	share := 100 * solr / (solr + hadoop)
	if share < 50 {
		return 50 - share
	}
	return share - 50
}
