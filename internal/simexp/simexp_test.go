package simexp

import (
	"testing"

	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

func run(t *testing.T, strat strategies.Strategy, mutate func(*workload.Config), deploy bool) *Result {
	t.Helper()
	topo, err := topology.BuildClos(topology.SmallClos())
	if err != nil {
		t.Fatal(err)
	}
	if deploy {
		strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	}
	cfg := workload.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	w := workload.Generate(topo, cfg)
	return Run(topo, w, strat, Opts{})
}

func TestRunCompletes(t *testing.T) {
	res := run(t, strategies.Rack{}, nil, false)
	if res.AllFCT.Len() == 0 || res.JobFCT.Len() == 0 {
		t.Fatal("no measurements collected")
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	if res.AllFCT.Len() != res.BackgroundFCT.Len()+res.AggFCT.Len() {
		t.Fatalf("sample sizes inconsistent: all=%d bg=%d agg=%d",
			res.AllFCT.Len(), res.BackgroundFCT.Len(), res.AggFCT.Len())
	}
}

// The paper's headline result (Figs 2, 6): with high data reduction,
// on-path aggregation beats rack-level aggregation on tail FCT.
func TestNetAggBeatsRackAtLowAlpha(t *testing.T) {
	rack := run(t, strategies.Rack{}, nil, false)
	netagg := run(t, strategies.NetAgg{}, nil, true)
	if na, rk := netagg.AllFCT.P99(), rack.AllFCT.P99(); na >= rk {
		t.Fatalf("netagg p99 FCT %g should beat rack %g at alpha=0.1", na, rk)
	}
	if na, rk := netagg.JobFCT.P99(), rack.JobFCT.P99(); na >= rk {
		t.Fatalf("netagg p99 job FCT %g should beat rack %g", na, rk)
	}
}

// Fig 7: non-aggregatable background traffic benefits too, because
// aggregation frees bandwidth.
func TestNetAggHelpsBackgroundTraffic(t *testing.T) {
	rack := run(t, strategies.Rack{}, nil, false)
	netagg := run(t, strategies.NetAgg{}, nil, true)
	if na, rk := netagg.BackgroundFCT.P99(), rack.BackgroundFCT.P99(); na > rk*1.05 {
		t.Fatalf("netagg background p99 %g should not exceed rack %g", na, rk)
	}
}

// Fig 8: at alpha = 1 (no reduction possible) NetAgg loses its advantage.
// The effect shows at job level (time to deliver a request's full result):
// at α = 1 both strategies are bound by the master's inbound link, while at
// low α NetAgg delivers a fraction of the data.
func TestNetAggAdvantageVanishesAtAlphaOne(t *testing.T) {
	noAgg := func(c *workload.Config) { c.OutputRatio = 1.0 }
	rack := run(t, strategies.Rack{}, noAgg, false)
	netagg := run(t, strategies.NetAgg{}, noAgg, true)
	lo := run(t, strategies.NetAgg{}, nil, true)
	loRack := run(t, strategies.Rack{}, nil, false)
	gainAt1 := rack.JobFCT.P99() / netagg.JobFCT.P99()
	gainAtLow := loRack.JobFCT.P99() / lo.JobFCT.P99()
	if gainAtLow <= gainAt1 {
		t.Fatalf("netagg job-level gain should shrink as alpha → 1: gain(0.1)=%.2f gain(1.0)=%.2f",
			gainAtLow, gainAt1)
	}
	if gainAt1 > 1.5 {
		t.Fatalf("at alpha=1 netagg should be roughly at parity with rack, gain=%.2f", gainAt1)
	}
}

// All strategies must deliver the same final result volume; the simulation
// only changes where reduction happens.
func TestStrategiesAgreeOnJobCount(t *testing.T) {
	var counts []int
	for _, s := range []strategies.Strategy{
		strategies.Direct{}, strategies.Rack{}, strategies.DAry{D: 2},
		strategies.DAry{D: 1},
	} {
		res := run(t, s, nil, false)
		counts = append(counts, res.JobFCT.Len())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("job counts differ across strategies: %v", counts)
		}
	}
}

func TestStoreAndForwardSlower(t *testing.T) {
	topo, _ := topology.BuildClos(topology.SmallClos())
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	w := workload.Generate(topo, workload.Default())
	stream := Run(topo, w, strategies.NetAgg{}, Opts{})
	topo2, _ := topology.BuildClos(topology.SmallClos())
	strategies.DeployTiers(topo2, strategies.TierAll, strategies.DefaultBoxSpec())
	sf := Run(topo2, w, strategies.NetAgg{}, Opts{StoreAndForward: true})
	if stream.JobFCT.P99() > sf.JobFCT.P99()*1.001 {
		t.Fatalf("streaming p99 job FCT %g should not exceed store-and-forward %g",
			stream.JobFCT.P99(), sf.JobFCT.P99())
	}
}
