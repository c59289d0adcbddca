// Package figures regenerates every simulation figure of the paper's
// evaluation (§2.4 feasibility study and §4.1): each FigNN function runs the
// required simulations and returns a metrics.Report whose table prints the same
// rows/series as the corresponding figure. All is the one list of them; the
// netagg-sim CLI is a loop over it.
package figures

import (
	"fmt"

	"netagg/internal/metrics"
	"netagg/internal/simexp"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
	"netagg/internal/workload"
)

// Scale selects the simulated cluster size. Figures default to ScaleMedium,
// which preserves the topology shape of the paper's 1,024-server cluster at
// a quarter of the size; ScaleFull is the paper's scale.
type Scale int

const (
	// ScaleSmall is a 64-server cluster for tests.
	ScaleSmall Scale = iota
	// ScaleMedium is a 256-server cluster, the benchmark default.
	ScaleMedium
	// ScaleFull is the paper's 1,024-server cluster.
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Clos returns the Clos configuration for a scale.
func (s Scale) Clos() topology.ClosConfig {
	switch s {
	case ScaleSmall:
		return topology.SmallClos()
	case ScaleFull:
		return topology.DefaultClos()
	default:
		return topology.ClosConfig{
			Pods:             4,
			RacksPerPod:      4,
			ServersPerRack:   16,
			AggPerPod:        2,
			Cores:            4,
			EdgeCapacity:     topology.Gbps,
			Oversubscription: 4,
		}
	}
}

// All declares every simulation figure once: its id and the function that
// regenerates it. Figs 6, 7 and 9 are three views of the same four
// baseline simulations, so they are one row.
var All = []metrics.Figure[Options]{
	metrics.One("fig02", Fig02),
	metrics.One("fig03", Fig03),
	{IDs: []string{"fig06", "fig07", "fig09"}, Run: FigCDF},
	metrics.One("fig08", Fig08),
	metrics.One("fig10", Fig10),
	metrics.One("fig11", Fig11),
	metrics.One("fig12", Fig12),
	metrics.One("fig13", Fig13),
	metrics.One("fig14", Fig14),
	metrics.One("planner", FigPlanner),
	metrics.One("replan", FigReplan),
}

// Options configures a figure run.
type Options struct {
	Scale Scale
	Seed  int64
	// Workers bounds the scenario fan-out parallelism; 0 means GOMAXPROCS.
	// Every figure is byte-identical for any worker count: scenarios are
	// independent simulations whose results land in per-index slots.
	Workers int
}

func (o Options) workload() workload.Config {
	cfg := workload.Default()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// scenario describes one simulation run.
type scenario struct {
	clos     topology.ClosConfig
	deploy   func(*topology.Topology) // attaches agg boxes; nil for none
	workload workload.Config
	strategy strategies.Strategy
}

// run builds and executes a scenario.
func run(sc scenario) *simexp.Result {
	topo, err := topology.BuildClos(sc.clos)
	if err != nil {
		panic(fmt.Sprintf("figures: bad Clos config: %v", err))
	}
	if sc.deploy != nil {
		sc.deploy(topo)
	}
	w := workload.Generate(topo, sc.workload)
	return simexp.Run(topo, w, sc.strategy, simexp.Opts{})
}

// runAll executes every scenario, fanning them across o.Workers goroutines,
// and returns the results in scenario order. Each scenario builds its own
// topology, workload, and simulator, so runs are independent and the result
// slice is byte-identical for any worker count.
func runAll(o Options, scs []scenario) []*simexp.Result {
	out := make([]*simexp.Result, len(scs))
	simexp.ForEach(o.Workers, len(scs), func(i int) {
		out[i] = run(scs[i])
	})
	return out
}

// deployAll returns a deploy func attaching the default boxes to all tiers.
func deployAll(spec strategies.BoxSpec) func(*topology.Topology) {
	return func(t *topology.Topology) { strategies.DeployTiers(t, strategies.TierAll, spec) }
}

// baselines is the strategy set most figures compare: rack (the
// normalisation baseline), binary tree, chain, and NetAgg with the paper's
// on-path planner wired explicitly (Fig planner swaps it for LoadAware).
func baselines() []strategies.Strategy {
	return []strategies.Strategy{
		strategies.Rack{},
		strategies.DAry{D: 2},
		strategies.DAry{D: 1},
		strategies.NetAgg{Planner: treeplan.OnPath{}},
	}
}

// relPoint is one x-axis point of a relative-FCT figure: a network and a
// workload on which every baseline strategy runs.
type relPoint struct {
	clos topology.ClosConfig
	wcfg workload.Config
}

// relP99Batch runs every baseline strategy on every point — one flat
// (point × strategy) scenario list fanned across o.Workers — and returns,
// per point, each strategy's 99th-percentile FCT of all flows relative to
// rack's, plus NetAgg's job-level relative completion under the key
// "netagg_job" (the per-flow metric is insensitive to reductions that only
// change *how much* data the master must receive; see DESIGN.md §8).
func relP99Batch(o Options, points []relPoint, spec strategies.BoxSpec) []map[string]float64 {
	strats := baselines()
	scs := make([]scenario, 0, len(points)*len(strats))
	for _, pt := range points {
		for _, st := range strats {
			sc := scenario{clos: pt.clos, workload: pt.wcfg, strategy: st}
			if _, isNetAgg := st.(strategies.NetAgg); isNetAgg {
				sc.deploy = deployAll(spec)
			}
			scs = append(scs, sc)
		}
	}
	results := runAll(o, scs)
	out := make([]map[string]float64, len(points))
	for pi := range points {
		rel := make(map[string]float64)
		var rackP99, rackJob float64
		for si, st := range strats {
			res := results[pi*len(strats)+si]
			p99 := res.AllFCT.P99()
			switch st.Name() {
			case "rack":
				rackP99 = p99
				rackJob = res.JobFCT.P99()
			case "netagg":
				rel["netagg_job"] = res.JobFCT.P99()
			}
			rel[st.Name()] = p99
		}
		for k, v := range rel {
			if k == "netagg_job" {
				rel[k] = v / rackJob
			} else {
				rel[k] = v / rackP99
			}
		}
		out[pi] = rel
	}
	return out
}
