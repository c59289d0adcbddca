package figures

import (
	"netagg/internal/metrics"
	"netagg/internal/simexp"
	"netagg/internal/strategies"
)

// cdfPercentiles are the points at which CDF figures are tabulated.
var cdfPercentiles = []float64{5, 10, 25, 50, 75, 90, 95, 99, 100}

// runBaselines executes all four strategies on the default network in
// parallel and returns results keyed by strategy name.
func runBaselines(o Options) map[string]*simexp.Result {
	strats := baselines()
	scs := make([]scenario, len(strats))
	for i, st := range strats {
		scs[i] = scenario{clos: o.Scale.Clos(), workload: o.workload(), strategy: st}
		if _, ok := st.(strategies.NetAgg); ok {
			scs[i].deploy = deployAll(strategies.DefaultBoxSpec())
		}
	}
	results := runAll(o, scs)
	out := make(map[string]*simexp.Result, len(strats))
	for i, st := range strats {
		out[st.Name()] = results[i]
	}
	return out
}

// cdfTable tabulates a per-strategy sample at the standard percentiles.
func cdfTable(title, unit string, results map[string]*simexp.Result, pick func(*simexp.Result) *metrics.Sample) *metrics.Table {
	table := metrics.NewTable(title, "percentile",
		"rack_"+unit, "binary_"+unit, "chain_"+unit, "netagg_"+unit)
	for _, p := range cdfPercentiles {
		table.AddRow(p,
			pick(results["rack"]).Percentile(p),
			pick(results["binary"]).Percentile(p),
			pick(results["chain"]).Percentile(p),
			pick(results["netagg"]).Percentile(p),
		)
	}
	return table
}

// FigCDF regenerates the three CDF figures from one run of the four
// strategies: Figure 6, the flow completion time of all traffic under
// rack, binary, chain and NetAgg aggregation; Figure 7, that of the
// non-aggregatable background traffic only; and Figure 9, the per-link
// traffic at α = 10 %, showing that chain and binary trees consume more
// link bandwidth than rack while NetAgg consumes the least.
func FigCDF(o Options) []*metrics.Report {
	results := runBaselines(o)
	return []*metrics.Report{{
		ID:    "fig06",
		Title: "CDF of flow completion time of all traffic",
		Table: cdfTable("Fig 6 — FCT of all traffic (seconds at CDF percentiles)", "s",
			results, func(r *simexp.Result) *metrics.Sample { return r.AllFCT }),
	}, {
		ID:    "fig07",
		Title: "CDF of flow completion time of non-aggregatable traffic",
		Table: cdfTable("Fig 7 — FCT of non-aggregatable traffic (seconds at CDF percentiles)", "s",
			results, func(r *simexp.Result) *metrics.Sample { return r.BackgroundFCT }),
	}, {
		ID:    "fig09",
		Title: "CDF of link traffic (α = 10%)",
		Table: cdfTable("Fig 9 — per-link traffic (MB at CDF percentiles)", "MB",
			results, func(r *simexp.Result) *metrics.Sample { return r.LinkMB }),
	}}
}

// Fig08 regenerates Figure 8: 99th-percentile FCT relative to rack-level
// aggregation while varying the aggregation output ratio α.
func Fig08(o Options) *metrics.Report {
	alphas := []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0}
	table := metrics.NewTable(
		"Fig 8 — relative 99th FCT vs aggregation output ratio α",
		"alpha", "rack", "binary", "chain", "netagg", "netagg_job",
	)
	points := make([]relPoint, len(alphas))
	for i, a := range alphas {
		wcfg := o.workload()
		wcfg.OutputRatio = a
		points[i] = relPoint{clos: o.Scale.Clos(), wcfg: wcfg}
	}
	for i, rel := range relP99Batch(o, points, strategies.DefaultBoxSpec()) {
		table.AddRow(alphas[i], rel["rack"], rel["binary"], rel["chain"], rel["netagg"], rel["netagg_job"])
	}
	return &metrics.Report{
		ID:    "fig08",
		Title: "Flow completion time relative to baseline with varying output ratio α",
		Table: table,
		Notes: "netagg_job is job-level completion vs rack's, the metric on which the α→1 convergence shows",
	}
}

// Fig10 regenerates Figure 10: relative 99th FCT while varying the fraction
// of aggregatable flows.
func Fig10(o Options) *metrics.Report {
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	table := metrics.NewTable(
		"Fig 10 — relative 99th FCT vs fraction of aggregatable flows",
		"agg_fraction", "rack", "binary", "chain", "netagg",
	)
	points := make([]relPoint, len(fractions))
	for i, f := range fractions {
		wcfg := o.workload()
		wcfg.AggregatableFraction = f
		points[i] = relPoint{clos: o.Scale.Clos(), wcfg: wcfg}
	}
	for i, rel := range relP99Batch(o, points, strategies.DefaultBoxSpec()) {
		table.AddRow(fractions[i], rel["rack"], rel["binary"], rel["chain"], rel["netagg"])
	}
	return &metrics.Report{
		ID:    "fig10",
		Title: "Flow completion time relative to baseline with varying fraction of aggregatable traffic",
		Table: table,
	}
}

// Fig11 regenerates Figure 11: relative 99th FCT while varying the
// over-subscription ratio of the 1 Gbps network from 1:1 to 1:10.
func Fig11(o Options) *metrics.Report {
	oversubs := []float64{1, 2, 4, 6, 10}
	table := metrics.NewTable(
		"Fig 11 — relative 99th FCT vs over-subscription (1G edge, α = 10%)",
		"oversub_1:x", "rack", "binary", "chain", "netagg",
	)
	points := make([]relPoint, len(oversubs))
	for i, ov := range oversubs {
		clos := o.Scale.Clos()
		clos.Oversubscription = ov
		points[i] = relPoint{clos: clos, wcfg: o.workload()}
	}
	for i, rel := range relP99Batch(o, points, strategies.DefaultBoxSpec()) {
		table.AddRow(oversubs[i], rel["rack"], rel["binary"], rel["chain"], rel["netagg"])
	}
	return &metrics.Report{
		ID:    "fig11",
		Title: "Flow completion time relative to baseline with different over-subscription",
		Table: table,
	}
}
