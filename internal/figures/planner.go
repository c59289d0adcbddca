package figures

import (
	"fmt"

	"netagg/internal/metrics"
	"netagg/internal/simexp"
	"netagg/internal/simnet"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
	"netagg/internal/workload"
)

// plannerFactors are the skew levels of the planner experiment: each hot
// box carries a standing background flow of factor × ProcRate bits.
var plannerFactors = []float64{0, 0.5, 1, 2}

// FigPlanner is a repository experiment beyond the paper's figure set: it
// compares the paper's hash-based on-path planner against the
// load-weighted LoadAware planner under skewed per-box background
// load. Every switch carries two agg boxes (scale-out, §3.1); the first
// box of each switch is "hot" — a standing background flow of
// factor × ProcRate bits competes for its processing resource. OnPath
// keeps hashing half of each switch's jobs onto the hot box; LoadAware
// sees the hot boxes' queue depth and steers trees to the cold ones. The
// table reports the 99th-percentile job completion time of both planners
// per skew factor.
func FigPlanner(o Options) *metrics.Report {
	results := make([]*simexp.Result, 2*len(plannerFactors))
	simexp.ForEach(o.Workers, len(results), func(i int) {
		results[i] = runPlanner(o, plannerFactors[i/2], i%2 == 1)
	})

	table := metrics.NewTable(
		"Fig planner — p99 job completion time under skewed box load",
		"bg_factor", "onpath_p99", "loadaware_p99",
	)
	for fi, f := range plannerFactors {
		table.AddRow(f, results[2*fi].JobFCT.P99(), results[2*fi+1].JobFCT.P99())
	}
	return &metrics.Report{
		ID:    "planner",
		Title: "OnPath vs LoadAware planner under skewed background load",
		Table: table,
		Notes: "2 boxes/switch; the first box of each switch is hot: factor×16 standing switch-local flows share its processing rate; LoadAware telemetry reports the hot boxes' queue depth; at small scale, seeds 1–8, LoadAware's p99 wins for every seed at factor 2 and for 7 of 8 seeds at factor 1",
	}
}

// runPlanner executes one cell of the planner figure: one skew factor
// under one planner.
func runPlanner(o Options, factor float64, loadAware bool) *simexp.Result {
	topo, err := topology.BuildClos(o.Scale.Clos())
	if err != nil {
		panic(fmt.Sprintf("figures: bad Clos config: %v", err))
	}
	spec := strategies.DefaultBoxSpec()
	spec.PerSwitch = 2
	boxes := strategies.DeployTiers(topo, strategies.TierAll, spec)

	// DeployAt attaches PerSwitch boxes per switch contiguously, so the
	// first box of each switch sits at every PerSwitch-th index.
	var hot []topology.NodeID
	for i := 0; i < len(boxes); i += spec.PerSwitch {
		hot = append(hot, boxes[i])
	}

	// The simulation has no live boxes to probe, so the load is static:
	// the hot boxes report a queue depth proportional to the injected
	// load, the cold boxes report nothing (zero load). Both planners see
	// it; only LoadAware reads it.
	load := make(map[topology.NodeID]treeplan.LoadSignal, len(hot))
	for _, b := range hot {
		load[b] = treeplan.LoadSignal{QueueDepth: int64(256 * factor)}
	}
	var planner treeplan.Planner = treeplan.OnPath{}
	if loadAware {
		planner = treeplan.LoadAware{}
	}

	// The default workload's Pareto flow sizes put edge-link-bound
	// monsters in the tail, hiding the planner from the p99: cap the
	// size spread and job width so the job tail is shaped by box
	// contention, not flow-size luck, and raise the aggregatable share
	// so the tail is made of jobs at all.
	wcfg := o.workload()
	wcfg.AggregatableFraction = 0.8
	wcfg.MaxWorkers = 16
	wcfg.MaxFlowBits = 8 * wcfg.MeanFlowBits
	w := workload.Generate(topo, wcfg)
	// The hot load: factor×16 standing flows from each hot box's own
	// switch into the box. The switch→box hop exists on no other path,
	// so the only resources the load consumes are the hot box's access
	// link and its processing rate — fair sharing with B competitors
	// caps an agg flow through a hot box at R/(B+1) while cold boxes
	// (and every network link the jobs use) stay untouched.
	prelude := func(net *simnet.Network) {
		burners := int(factor * 16)
		if burners <= 0 {
			return
		}
		for i, b := range hot {
			sw := topo.Node(b).Attached
			for k := 0; k < burners; k++ {
				h := topology.FlowHash(0x5EED, uint64(i)+1, uint64(k)+1)
				net.AddFlowOnPath(sw, b, h, simnet.FlowSpec{
					Bits:  spec.ProcRate,
					Class: simnet.ClassBackground,
					Job:   -1,
				})
			}
		}
	}
	return simexp.Run(topo, w, strategies.NetAgg{Planner: planner, Load: load}, simexp.Opts{Prelude: prelude})
}
