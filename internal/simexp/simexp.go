// Package simexp runs complete simulation experiments: it wires a workload
// and an aggregation strategy into the flow simulator, runs it, and collects
// the measurements the paper's figures report — flow completion time
// distributions for all/background/aggregation traffic, job completion
// times, and per-link traffic.
package simexp

import (
	"netagg/internal/metrics"
	"netagg/internal/simnet"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// Result holds the measurements of one simulation run.
type Result struct {
	// AllFCT is the flow completion time of every flow in the run
	// (background flows plus all constituent flows of aggregation jobs) —
	// the paper's headline metric (Figs 2, 6, 8, 10-14).
	AllFCT *metrics.Sample
	// BackgroundFCT covers only the non-aggregatable flows (Fig 7).
	BackgroundFCT *metrics.Sample
	// AggFCT covers only flows belonging to aggregation jobs.
	AggFCT *metrics.Sample
	// JobFCT is the per-job completion time: from job start until the last
	// result flow reaches the master.
	JobFCT *metrics.Sample
	// LinkMB is the traffic carried by each network link, in megabytes
	// (Fig 9).
	LinkMB *metrics.Sample
	// Duration is the simulated time until the last flow completed.
	Duration float64
	// Stats carries simulator internals (event/allocation counts).
	Stats simnet.RunStats
}

// Opts selects simulator ablation modes.
type Opts struct {
	// StoreAndForward disables streaming aggregation.
	StoreAndForward bool
	// NaiveAllocation replaces max-min fairness with naive equal shares.
	NaiveAllocation bool
	// FullRecompute disables incremental reallocation: every coupling
	// component is re-waterfilled on every event. Debug/oracle mode — the
	// simulated behaviour must be byte-identical to the incremental default.
	FullRecompute bool
	// Prelude, when non-nil, runs after the workload's background flows
	// are installed and before any job is added — a hook for experiments
	// that inject load the workload generator does not model (e.g. the
	// planner figure's skewed per-box traffic). Flows it adds count
	// toward link traffic and Duration but not the FCT samples.
	Prelude func(*simnet.Network)
}

// Run simulates the workload on the topology under the given strategy;
// the zero Opts is the paper's simulator.
func Run(topo *topology.Topology, w *workload.Workload, strat strategies.Strategy, o Opts) *Result {
	net := simnet.NewNetwork(topo)
	net.Sim.StoreAndForward = o.StoreAndForward
	net.Sim.NaiveAllocation = o.NaiveAllocation
	net.Sim.FullRecompute = o.FullRecompute

	var bg []simnet.FlowID
	for i := range w.Background {
		b := &w.Background[i]
		h := topology.FlowHash(0xB6, uint64(i)+1)
		bg = append(bg, net.AddFlowOnPath(b.Src, b.Dst, h, simnet.FlowSpec{
			Bits:  b.Bits,
			Class: simnet.ClassBackground,
			Job:   -1,
		}))
	}

	if o.Prelude != nil {
		o.Prelude(net)
	}

	jobs := make([]strategies.JobFlows, len(w.Jobs))
	for i := range w.Jobs {
		jobs[i] = strat.AddJob(net, &w.Jobs[i], w.Config.OutputRatio)
	}

	stats := net.Sim.Run()

	res := &Result{
		AllFCT:        metrics.NewSample(net.Sim.NumFlows()),
		BackgroundFCT: metrics.NewSample(len(bg)),
		AggFCT:        metrics.NewSample(net.Sim.NumFlows() - len(bg)),
		JobFCT:        metrics.NewSample(len(jobs)),
		LinkMB:        metrics.NewSample(0),
		Duration:      stats.Duration,
		Stats:         stats,
	}
	for _, id := range bg {
		if net.Sim.FlowTruncated(id) {
			continue // churn flow cut short mid-run; its FCT is not real
		}
		fct := net.Sim.FCT(id)
		res.AllFCT.Add(fct)
		res.BackgroundFCT.Add(fct)
	}
	for _, jf := range jobs {
		// Dynamic strategies add migration resend flows after the build
		// phase; fold them in. Truncated flows (superseded attempts) are
		// excluded from the FCT samples — their early ends are artifacts
		// of migration, not completions.
		all, finals := jf.All, jf.Finals
		if jf.Extra != nil {
			all = append(append([]simnet.FlowID(nil), all...), jf.Extra.All...)
			finals = append(append([]simnet.FlowID(nil), finals...), jf.Extra.Finals...)
		}
		for _, id := range all {
			if net.Sim.FlowTruncated(id) {
				continue
			}
			fct := net.Sim.FCT(id)
			res.AllFCT.Add(fct)
			res.AggFCT.Add(fct)
		}
		end := 0.0
		for _, id := range finals {
			if net.Sim.FlowTruncated(id) {
				continue // superseded by a resend's result flow
			}
			if e := net.Sim.FlowEnd(id); e > end {
				end = e
			}
		}
		res.JobFCT.Add(end) // jobs start at t=0
	}
	for _, bits := range net.LinkTraffic() {
		res.LinkMB.Add(bits / 8 / 1e6)
	}
	return res
}
