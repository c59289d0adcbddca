package figures

import (
	"fmt"

	"netagg/internal/metrics"
	"netagg/internal/strategies"
	"netagg/internal/topology"
)

// Fig12 regenerates Figure 12: the effect of partial NetAgg deployments.
// First, boxes at a single tier only (ToR / aggregation / core) versus the
// full deployment; second, a fixed box budget spread over the core tier
// only, the aggregation tier, or both.
func Fig12(o Options) *metrics.Report {
	clos := o.Scale.Clos()
	wcfg := o.workload()
	spec := strategies.DefaultBoxSpec()

	table := metrics.NewTable(
		"Fig 12 — relative 99th FCT of partial NetAgg deployments",
		"deployment", "rel_99th_FCT",
	)
	tierConfigs := []struct {
		name string
		tier strategies.Tier
	}{
		{"tor-only", strategies.TierToR},
		{"agg-only", strategies.TierAgg},
		{"core-only", strategies.TierCore},
		{"full", strategies.TierAll},
	}
	// Fixed budget: as many boxes as there are aggregation-tier switches.
	budget := clos.Pods * clos.AggPerPod
	budgetConfigs := []struct {
		name  string
		tiers strategies.Tier
	}{
		{"budget-core", strategies.TierCore},
		{"budget-agg", strategies.TierAgg},
		{"budget-agg+core", strategies.TierAgg | strategies.TierCore},
	}

	// Scenario list: the rack baseline, one NetAgg run per tier config, one
	// per budget config.
	scs := []scenario{{clos: clos, workload: wcfg, strategy: strategies.Rack{}}}
	netaggAt := func(deploy func(*topology.Topology)) scenario {
		return scenario{clos: clos, deploy: deploy, workload: wcfg, strategy: strategies.NetAgg{}}
	}
	for _, tc := range tierConfigs {
		tier := tc.tier
		scs = append(scs, netaggAt(func(t *topology.Topology) {
			strategies.DeployTiers(t, tier, spec)
		}))
	}
	for _, bc := range budgetConfigs {
		tiers := bc.tiers
		scs = append(scs, netaggAt(func(t *topology.Topology) {
			strategies.DeployBudget(t, budget, tiers, spec)
		}))
	}
	results := runAll(o, scs)
	rackP99 := results[0].AllFCT.P99()
	for i, tc := range tierConfigs {
		table.AddRow(tc.name, results[1+i].AllFCT.P99()/rackP99)
	}
	for i, bc := range budgetConfigs {
		table.AddRow(fmt.Sprintf("%s(n=%d)", bc.name, budget),
			results[1+len(tierConfigs)+i].AllFCT.P99()/rackP99)
	}
	return &metrics.Report{
		ID:    "fig12",
		Title: "Flow completion time relative to baseline with different partial NetAgg deployments",
		Table: table,
		Notes: "budget rows spread a fixed number of boxes uniformly over the named tiers",
	}
}

// Fig13 regenerates Figure 13: NetAgg in a 10 Gbps-edge network with
// varying over-subscription, scaling out to 2 and 4 agg boxes per switch.
func Fig13(o Options) *metrics.Report {
	oversubs := []float64{1, 2, 4, 10}
	table := metrics.NewTable(
		"Fig 13 — relative 99th FCT in a 10G network (scale-out boxes per switch)",
		"oversub_1:x", "netagg_1xbox", "netagg_2xbox", "netagg_4xbox",
	)
	scaleOut := []int{1, 2, 4}
	var scs []scenario
	for _, ov := range oversubs {
		clos := o.Scale.Clos()
		clos.EdgeCapacity = 10 * topology.Gbps
		clos.Oversubscription = ov
		scs = append(scs, scenario{clos: clos, workload: o.workload(), strategy: strategies.Rack{}})
		for _, k := range scaleOut {
			spec := strategies.DefaultBoxSpec()
			spec.PerSwitch = k
			scs = append(scs, scenario{
				clos:     clos,
				deploy:   deployAll(spec),
				workload: o.workload(),
				strategy: strategies.NetAgg{Trees: k},
			})
		}
	}
	results := runAll(o, scs)
	stride := 1 + len(scaleOut)
	for oi, ov := range oversubs {
		rackP99 := results[oi*stride].AllFCT.P99()
		row := []interface{}{ov}
		for ki := range scaleOut {
			row = append(row, results[oi*stride+1+ki].AllFCT.P99()/rackP99)
		}
		table.AddRow(row...)
	}
	return &metrics.Report{
		ID:    "fig13",
		Title: "Flow completion time relative to baseline in 10G network with varying over-subscription",
		Table: table,
		Notes: "k boxes per switch are load-balanced with k aggregation trees per job",
	}
}

// Fig14 regenerates Figure 14: relative 99th FCT with a varying fraction of
// straggling workers whose flows start late.
func Fig14(o Options) *metrics.Report {
	ratios := []float64{0, 0.1, 0.2, 0.3, 0.5}
	table := metrics.NewTable(
		"Fig 14 — relative 99th FCT vs straggler ratio",
		"straggler_ratio", "rack", "binary", "chain", "netagg",
	)
	points := make([]relPoint, len(ratios))
	for i, r := range ratios {
		wcfg := o.workload()
		wcfg.StragglerFraction = r
		wcfg.StragglerDelayMean = 0.05 // ≈5× the typical FCT in this network
		points[i] = relPoint{clos: o.Scale.Clos(), wcfg: wcfg}
	}
	for i, rel := range relP99Batch(o, points, strategies.DefaultBoxSpec()) {
		table.AddRow(ratios[i], rel["rack"], rel["binary"], rel["chain"], rel["netagg"])
	}
	return &metrics.Report{
		ID:    "fig14",
		Title: "Flow completion time relative to baseline with varying stragglers",
		Table: table,
		Notes: "stragglers start after an exponential delay (mean 50 ms); baseline rack also sees them",
	}
}
