package simexp

import (
	"testing"

	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// Regression test: fully aggregatable workloads once degenerated into
// nanosecond buffer-drain ping-pong between mutually dependent flows,
// exhausting the event budget. The dtMin event-step floor bounds events to
// a small multiple of the flow count.
func TestNoEventLivelockOnFullyAggregatableWorkload(t *testing.T) {
	topo, err := topology.BuildClos(topology.SmallClos())
	if err != nil {
		t.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	cfg := workload.Default()
	cfg.AggregatableFraction = 1.0
	w := workload.Generate(topo, cfg)
	res := Run(topo, w, strategies.NetAgg{}, Opts{})
	if res.Stats.Events > 20*w.NumFlows() {
		t.Fatalf("event explosion: %d events for %d flows", res.Stats.Events, w.NumFlows())
	}
}
