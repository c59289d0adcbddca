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

// replanFactors are the churn levels of the dynamic-tree experiment: at
// t = replanChurnStart, factor × 16 burner flows land on each hot box.
var replanFactors = []float64{0, 1, 2, 4}

// replanChurnStart is when the congestion burst arrives (simulated
// seconds). The initial plan cannot see it: every tree starts on the
// hash-selected boxes and only the dynamic strategy reacts.
const replanChurnStart = 0.002

// replanBits is the per-worker partial result size. Migration only pays
// off when the work remaining at detection time dominates the resend of
// the already-delivered prefix, so the jobs are deliberately long
// relative to the replanner's detection latency (HotStreak ticks).
const replanBits = 4e7

// FigReplan is a repository experiment beyond the paper's figure set
// (DESIGN.md §16): static on-path trees versus congestion-aware dynamic
// trees under mid-job background churn. Both strategies plan the same
// initial trees; at replanChurnStart a burst of burner flows congests the
// first box of every switch. The static strategy stays pinned to the
// congested boxes for the rest of each job; the dynamic strategy detects
// them through the treeplan.Hysteresis and migrates every affected
// subtree to the cold alternative, re-sending the partials in full — the
// simulator's rendition of the live fabric's attempt-epoch migration. The
// table reports the 99th-percentile job completion time of both per churn
// factor, plus how many subtree migrations the dynamic runs performed.
func FigReplan(o Options) *metrics.Report {
	results := make([]*simexp.Result, 2*len(replanFactors))
	migrations := make([]int, len(replanFactors))
	simexp.ForEach(o.Workers, len(results), func(i int) {
		res, migs := runReplan(o, replanFactors[i/2], i%2 == 1)
		results[i] = res
		if i%2 == 1 {
			migrations[i/2] = migs
		}
	})

	table := metrics.NewTable(
		"Fig replan — p99 job completion time under mid-job churn",
		"churn_factor", "static_p99", "dynamic_p99", "migrations",
	)
	for fi, f := range replanFactors {
		table.AddRow(f, results[2*fi].JobFCT.P99(), results[2*fi+1].JobFCT.P99(), migrations[fi])
	}
	return &metrics.Report{
		ID:    "replan",
		Title: "Static vs dynamic aggregation trees under background churn",
		Table: table,
		Notes: "2 boxes/switch; factor×16 burners land on the first box of every switch at t=2ms, after the trees are planned; one 16-worker job per rack; dynamic trees tick every 2ms with a 24-flow hot threshold",
	}
}

// runReplan executes one cell of the replan figure: one churn factor under
// the static or the dynamic strategy. It returns the run's measurements
// and, for dynamic cells, the number of subtree migrations performed.
func runReplan(o Options, factor float64, dynamic bool) (*simexp.Result, int) {
	cfg := o.Scale.Clos()
	topo, err := topology.BuildClos(cfg)
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

	w := replanWorkload(topo, cfg)

	// The churn: factor×16 burner flows from each hot box's own switch
	// into the box, injected mid-run so the initial plan cannot avoid
	// them. As in the planner figure, the switch→box hop exists on no
	// other path, so the burners only consume the hot boxes' access links
	// and processing rates.
	prelude := func(net *simnet.Network) {
		burners := int(factor * 16)
		if burners <= 0 {
			return
		}
		net.Sim.At(replanChurnStart, func() {
			for i, b := range hot {
				sw := topo.Node(b).Attached
				for k := 0; k < burners; k++ {
					h := topology.FlowHash(0xC4B7, uint64(i)+1, uint64(k)+1)
					net.AddFlowOnPath(sw, b, h, simnet.FlowSpec{
						Bits:  spec.ProcRate,
						Start: replanChurnStart,
						Class: simnet.ClassBackground,
						Job:   -1,
					})
				}
			}
		})
	}

	var strat strategies.Strategy = strategies.NetAgg{Planner: treeplan.OnPath{}}
	var dyn *strategies.DynamicNetAgg
	if dynamic {
		// A DynamicNetAgg is stateful: each cell gets its own instance.
		dyn = &strategies.DynamicNetAgg{}
		strat = dyn
	}
	res := simexp.Run(topo, w, strat, simexp.Opts{Prelude: prelude})
	migs := 0
	if dyn != nil {
		migs = dyn.Migrations
	}
	return res, migs
}

// replanWorkload builds the experiment's deterministic workload: one job
// per rack, each with 16 equal-sized workers spread over the two racks
// after the master's, sized so the job is long relative to the
// replanner's detection latency (workloads drawn from the generator's
// Pareto sizes are mostly over before a congestion burst can be detected,
// which measures nothing).
func replanWorkload(topo *topology.Topology, cfg topology.ClosConfig) *workload.Workload {
	servers := topo.Servers()
	racks := cfg.Pods * cfg.RacksPerPod
	spr := cfg.ServersPerRack
	w := &workload.Workload{Config: workload.Default()}
	for j := 0; j < racks; j++ {
		job := workload.Job{ID: j + 1, Master: servers[j*spr]}
		for r := 1; r <= 2; r++ {
			base := ((j + r) % racks) * spr
			for i := 0; i < 8; i++ {
				job.Workers = append(job.Workers, servers[base+1+(j+i)%(spr-1)])
				job.Bits = append(job.Bits, replanBits)
				job.Delay = append(job.Delay, 0)
			}
		}
		w.Jobs = append(w.Jobs, job)
	}
	return w
}
