package simexp

import (
	"testing"

	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// BenchmarkRunFullScale simulates one NetAgg sweep at the paper's
// 1,024-server scale per op — the end-to-end number the incremental
// allocator is judged on (topology/workload construction is outside the
// timer). Run with -benchtime 1x for a single wall-clock sample;
// EXPERIMENTS.md records the trajectory.
func BenchmarkRunFullScale(b *testing.B) {
	topo, err := topology.BuildClos(topology.DefaultClos())
	if err != nil {
		b.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	w := workload.Generate(topo, workload.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(topo, w, strategies.NetAgg{}, Opts{})
		if res.Stats.Events == 0 {
			b.Fatal("full-scale run produced no events")
		}
	}
}
