// Flow-level simulation: a small data centre (64 servers, 1 Gbps edges,
// 1:4 over-subscribed) runs the paper's synthetic partition/aggregation
// workload under each aggregation strategy. The table shows the 99th
// percentile flow completion time of every strategy relative to rack-level
// aggregation — the paper's headline comparison.
//
// Run with: go run ./examples/simulation
package main

import (
	"fmt"
	"log"

	"netagg/internal/simexp"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

func main() {
	cfg := topology.SmallClos()
	wcfg := workload.Default()
	fmt.Printf("simulating %d servers, %d switches, α=%.0f%%, %.0f%% aggregatable flows\n\n",
		cfg.NumServers(), cfg.NumSwitches(), wcfg.OutputRatio*100, wcfg.AggregatableFraction*100)

	strats := []strategies.Strategy{
		strategies.Direct{},
		strategies.Rack{},
		strategies.DAry{D: 2},
		strategies.DAry{D: 1},
		strategies.NetAgg{},
	}

	var rackP99 float64
	fmt.Printf("%-10s %14s %14s %16s\n", "strategy", "p99 FCT (ms)", "vs rack", "job p99 (ms)")
	for _, st := range strats {
		topo, err := topology.BuildClos(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, ok := st.(strategies.NetAgg); ok {
			strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
		}
		w := workload.Generate(topo, wcfg)
		res := simexp.Run(topo, w, st, simexp.Opts{})
		p99 := res.AllFCT.P99()
		if st.Name() == "rack" {
			rackP99 = p99
		}
		rel := "-"
		if rackP99 > 0 {
			rel = fmt.Sprintf("%.2f", p99/rackP99)
		}
		fmt.Printf("%-10s %14.3f %14s %16.3f\n", st.Name(), p99*1000, rel, res.JobFCT.P99()*1000)
	}
	fmt.Println("\nlower is better; NetAgg aggregates on-path at every switch tier (R=9.2 Gbps boxes)")
}
