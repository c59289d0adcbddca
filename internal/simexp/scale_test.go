package simexp

import (
	"testing"

	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// TestFullScaleRun exercises the paper's full 1,024-server topology once as
// a correctness and performance canary. Skipped with -short.
func TestFullScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation skipped in short mode")
	}
	topo, err := topology.BuildClos(topology.DefaultClos())
	if err != nil {
		t.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	w := workload.Generate(topo, workload.Default())
	if w.NumFlows() < 3000 {
		t.Fatalf("expected thousands of flows at full scale, got %d", w.NumFlows())
	}
	res := Run(topo, w, strategies.NetAgg{}, Opts{})
	if res.AllFCT.Len() == 0 || res.Duration <= 0 {
		t.Fatal("full-scale run produced no measurements")
	}
	t.Logf("flows=%d jobs=%d events=%d waterfills=%d components=%d maxcomp=%d realloc=%d carried=%d unconverged=%d p99=%.4gs",
		w.NumFlows(), len(w.Jobs), res.Stats.Events, res.Stats.Alloc.Waterfills,
		res.Stats.Alloc.Components, res.Stats.Alloc.MaxComponent,
		res.Stats.Alloc.FlowsReallocated, res.Stats.Alloc.FlowsCarried,
		res.Stats.Alloc.Unconverged, res.AllFCT.P99())
}
