package figures

import (
	"fmt"

	"netagg/internal/cost"
	"netagg/internal/metrics"
	"netagg/internal/strategies"
	"netagg/internal/topology"
)

// Fig02 regenerates Figure 2: 99th-percentile flow completion time of
// NetAgg relative to rack-level aggregation, as a function of the agg box
// processing rate R, for a full-bisection (1:1) and a 1:4 over-subscribed
// network (§2.4 feasibility study).
func Fig02(o Options) *metrics.Report {
	rates := []float64{1, 2, 4, 6, 8, 10}
	oversubs := []float64{1, 4}

	table := metrics.NewTable(
		"Fig 2 — 99th FCT relative to rack-level aggregation vs agg box processing rate",
		"rate_gbps", "oversub_1:1", "oversub_1:4",
	)
	// One flat scenario list per over-subscription: the rack baseline
	// followed by a NetAgg run per processing rate.
	var scs []scenario
	for _, ov := range oversubs {
		clos := o.Scale.Clos()
		clos.Oversubscription = ov
		scs = append(scs, scenario{clos: clos, workload: o.workload(), strategy: strategies.Rack{}})
		for _, rate := range rates {
			spec := strategies.DefaultBoxSpec()
			spec.ProcRate = rate * topology.Gbps
			scs = append(scs, scenario{
				clos:     clos,
				deploy:   deployAll(spec),
				workload: o.workload(),
				strategy: strategies.NetAgg{},
			})
		}
	}
	results := runAll(o, scs)
	stride := 1 + len(rates)
	for ri, rate := range rates {
		row := []interface{}{rate}
		for oi := range oversubs {
			rackP99 := results[oi*stride].AllFCT.P99()
			row = append(row, results[oi*stride+1+ri].AllFCT.P99()/rackP99)
		}
		table.AddRow(row...)
	}
	return &metrics.Report{
		ID:    "fig02",
		Title: "FCT for different aggregation processing rates R",
		Table: table,
		Notes: "boxes at every switch, 10G access links; workload α=10%, 40% aggregatable",
	}
}

// Fig03 regenerates Figure 3: performance (relative 99th FCT) and upgrade
// cost of alternative DC configurations versus deploying NetAgg in the base
// network (1 Gbps edge, 1:4 over-subscribed).
func Fig03(o Options) *metrics.Report {
	base := o.Scale.Clos()
	prices := cost.DefaultPrices()
	wcfg := o.workload()
	spec := strategies.DefaultBoxSpec()

	// Network upgrades, all evaluated with rack-level aggregation.
	netUpgrades := []struct {
		name  string
		edge  float64
		overs float64
	}{
		{"FullBisec-10G", 10 * topology.Gbps, 1},
		{"Oversub-10G", 10 * topology.Gbps, base.Oversubscription},
		{"FullBisec-1G", 1 * topology.Gbps, 1},
	}

	// Scenario list: base rack run, the upgrades, then the two NetAgg
	// deployments in the unchanged base network.
	scs := []scenario{{clos: base, workload: wcfg, strategy: strategies.Rack{}}}
	upgradeCosts := make([]float64, len(netUpgrades))
	for i, up := range netUpgrades {
		clos := base
		clos.EdgeCapacity = up.edge
		clos.Oversubscription = up.overs
		scs = append(scs, scenario{clos: clos, workload: wcfg, strategy: strategies.Rack{}})
		c, err := cost.UpgradeCost(base, clos, prices)
		if err != nil {
			panic(err)
		}
		upgradeCosts[i] = c
	}
	scs = append(scs,
		scenario{clos: base, deploy: deployAll(spec), workload: wcfg, strategy: strategies.NetAgg{}},
		scenario{
			clos: base,
			deploy: func(t *topology.Topology) {
				strategies.DeployTiers(t, strategies.TierAgg, spec)
			},
			workload: wcfg,
			strategy: strategies.NetAgg{},
		})
	results := runAll(o, scs)
	baseP99 := results[0].AllFCT.P99()

	type config struct {
		name string
		rel  float64
		cost float64
	}
	var configs []config
	for i, up := range netUpgrades {
		configs = append(configs, config{up.name, results[1+i].AllFCT.P99() / baseP99, upgradeCosts[i]})
	}
	nFull := base.NumSwitches()
	configs = append(configs, config{"NetAgg", results[len(netUpgrades)+1].AllFCT.P99() / baseP99,
		cost.BoxCost(nFull, spec.LinkCapacity, prices)})
	nIncr := base.Pods * base.AggPerPod
	configs = append(configs, config{"Incremental-NetAgg", results[len(netUpgrades)+2].AllFCT.P99() / baseP99,
		cost.BoxCost(nIncr, spec.LinkCapacity, prices)})

	table := metrics.NewTable(
		"Fig 3 — performance and upgrade cost of DC configurations (vs 1G 1:4 base, rack-level agg)",
		"config", "rel_99th_FCT", "upgrade_cost_$M",
	)
	for _, c := range configs {
		table.AddRow(c.name, c.rel, c.cost/1e6)
	}
	return &metrics.Report{
		ID:    "fig03",
		Title: "Performance and cost of different DC configurations",
		Table: table,
		Notes: fmt.Sprintf("synthetic Popa-style prices (%+v); NetAgg boxes R=9.2G on 10G links", prices),
	}
}
