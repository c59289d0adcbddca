package strategies

import (
	"testing"

	"netagg/internal/simnet"
	"netagg/internal/topology"
)

// benchDynScenario is the benchmark twin of runDynScenario: one
// 16-worker cross-rack job, a 32-burner congestion burst per hot box at
// t=2ms, run under the static or the dynamic strategy. It returns the
// job's flow count so the compiler cannot discard the run.
func benchDynScenario(b *testing.B, dynamic bool) int {
	b.Helper()
	topo, err := topology.BuildClos(topology.SmallClos())
	if err != nil {
		b.Fatal(err)
	}
	spec := DefaultBoxSpec()
	spec.PerSwitch = 2
	boxes := DeployTiers(topo, TierAll, spec)
	var hot []topology.NodeID
	for i := 0; i < len(boxes); i += spec.PerSwitch {
		hot = append(hot, boxes[i])
	}
	job := crossRackJob(topo, 4, 4, 4e7)
	net := simnet.NewNetwork(topo)
	burnBoxes(net, topo, hot, 32, spec.ProcRate, 0.002)

	var strat Strategy = NetAgg{}
	if dynamic {
		strat = &DynamicNetAgg{}
	}
	jf := strat.AddJob(net, job, 0.1)
	net.Sim.Run()
	n := len(jf.All)
	if jf.Extra != nil {
		n += len(jf.Extra.All)
	}
	return n
}

// BenchmarkReplanStatic is the baseline: the same churn scenario without
// replanning — the cost of simulating the congested run itself.
func BenchmarkReplanStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if benchDynScenario(b, false) == 0 {
			b.Fatal("static scenario planned no flows")
		}
	}
}

// BenchmarkReplanDynamic measures the dynamic-tree machinery end to end:
// tick timers, hysteresis scoring, truncation, and the migration
// re-plan/re-send, on top of the simulation the static baseline prices.
func BenchmarkReplanDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if benchDynScenario(b, true) == 0 {
			b.Fatal("dynamic scenario planned no flows")
		}
	}
}
