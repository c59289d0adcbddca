package simexp

import (
	"testing"

	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// oracleScenario is one (topology, strategy, ablation, seed) point of the
// equivalence suite.
type oracleScenario struct {
	name  string
	clos  topology.ClosConfig
	strat strategies.Strategy
	sf    bool
	seed  int64
}

// mediumClos mirrors figures.ScaleMedium (256 servers) without importing
// figures (which would create an import cycle with this package).
func mediumClos() topology.ClosConfig {
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

func oracleScenarios(short bool) []oracleScenario {
	small := topology.SmallClos()
	scs := []oracleScenario{
		{"small/netagg", small, strategies.NetAgg{}, false, 1},
		{"small/netagg/sf", small, strategies.NetAgg{}, true, 1},
		{"small/rack", small, strategies.Rack{}, false, 1},
		{"small/dary2", small, strategies.DAry{D: 2}, false, 1},
		{"small/netagg/seed7", small, strategies.NetAgg{}, false, 7},
	}
	if !short {
		scs = append(scs,
			oracleScenario{"medium/netagg", mediumClos(), strategies.NetAgg{}, false, 1},
			oracleScenario{"medium/dary1", mediumClos(), strategies.DAry{D: 1}, false, 3},
		)
	}
	return scs
}

// oracleRun executes one scenario in either allocation mode and returns the
// behavioural fingerprint plus the stats for the carried/reallocated sanity
// checks.
func oracleRun(t *testing.T, sc oracleScenario, full bool) (string, *Result) {
	t.Helper()
	topo, err := topology.BuildClos(sc.clos)
	if err != nil {
		t.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	cfg := workload.Default()
	cfg.Seed = sc.seed
	w := workload.Generate(topo, cfg)
	res := Run(topo, w, sc.strat, Opts{StoreAndForward: sc.sf, FullRecompute: full})
	return fingerprint(res), res
}

// TestIncrementalMatchesFullRecompute is the equivalence oracle for the
// incremental allocator: carrying a clean coupling component's rates
// verbatim must be indistinguishable — to the last bit of every float64 —
// from re-waterfilling every component on every event. Any divergence means
// a dirty-marking rule is missing (an event changed a component's
// allocation inputs without marking it) or the per-component procedure is
// not idempotent on converged state.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, sc := range oracleScenarios(testing.Short()) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			inc, incRes := oracleRun(t, sc, false)
			full, fullRes := oracleRun(t, sc, true)
			if inc != full {
				a, b := diffHead(inc, full)
				t.Fatalf("incremental and full-recompute runs diverged:\nincremental: %s\nfull:        %s", a, b)
			}
			// The oracle must actually exercise both code paths: full
			// recompute reallocates at least as many flow-slots as the
			// incremental run, which must have carried some.
			if fullRes.Stats.Alloc.FlowsReallocated < incRes.Stats.Alloc.FlowsReallocated {
				t.Errorf("full recompute reallocated fewer flow-slots (%d) than incremental (%d)",
					fullRes.Stats.Alloc.FlowsReallocated, incRes.Stats.Alloc.FlowsReallocated)
			}
			if incRes.Stats.Alloc.FlowsCarried == 0 && incRes.Stats.Events > 10 {
				t.Errorf("incremental run carried no flow rates over %d events; dirty tracking is not pruning anything",
					incRes.Stats.Events)
			}
		})
	}
}
