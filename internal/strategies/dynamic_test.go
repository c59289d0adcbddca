package strategies

import (
	"testing"

	"netagg/internal/simnet"
	"netagg/internal/topology"
)

// dynTopo builds a small Clos with two boxes per switch so migration has
// a cold alternative at every hop, and returns the per-switch-first
// ("hot") boxes.
func dynTopo(t *testing.T) (*topology.Topology, []topology.NodeID, BoxSpec) {
	t.Helper()
	topo, err := topology.BuildClos(topology.SmallClos())
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultBoxSpec()
	spec.PerSwitch = 2
	boxes := DeployTiers(topo, TierAll, spec)
	var hot []topology.NodeID
	for i := 0; i < len(boxes); i += spec.PerSwitch {
		hot = append(hot, boxes[i])
	}
	return topo, hot, spec
}

// burnBoxes injects burner flows onto each box's processing resource at
// time at, modelling a background-load burst the t=0 plan cannot see.
func burnBoxes(net *simnet.Network, topo *topology.Topology, boxes []topology.NodeID, count int, bits, at float64) {
	net.Sim.At(at, func() {
		for i, b := range boxes {
			sw := topo.Node(b).Attached
			for k := 0; k < count; k++ {
				h := topology.FlowHash(0xB0B0, uint64(i)+1, uint64(k)+1)
				net.AddFlowOnPath(sw, b, h, simnet.FlowSpec{
					Bits:  bits,
					Start: at,
					Class: simnet.ClassBackground,
					Job:   -1,
				})
			}
		}
	})
}

// runDynScenario runs one job under congestion churn: burners land on
// the hot boxes shortly after the job starts. It returns the job
// completion time and the migration count (0 for the static strategy).
func runDynScenario(t *testing.T, dynamic bool) (float64, int) {
	t.Helper()
	topo, hot, spec := dynTopo(t)
	job := crossRackJob(topo, 4, 4, 4e7)
	net := simnet.NewNetwork(topo)
	// 32 burners per hot box from t=0.002, each sized to outlast the job
	// even at a full share of the box's processing rate.
	burnBoxes(net, topo, hot, 32, spec.ProcRate, 0.002)

	var strat Strategy = NetAgg{}
	var dyn *DynamicNetAgg
	if dynamic {
		dyn = &DynamicNetAgg{}
		strat = dyn
	}
	jf := strat.AddJob(net, job, 0.1)
	net.Sim.Run()

	end := 0.0
	finals := jf.Finals
	if jf.Extra != nil {
		finals = append(finals, jf.Extra.Finals...)
	}
	for _, id := range finals {
		if net.Sim.FlowTruncated(id) {
			continue
		}
		if e := net.Sim.FlowEnd(id); e > end {
			end = e
		}
	}
	migrations := 0
	if dyn != nil {
		migrations = dyn.Migrations
	}
	return end, migrations
}

// TestDynamicNetAggMigratesUnderChurn pins the tentpole behaviour: under
// a mid-job congestion burst the dynamic strategy migrates at least one
// subtree and completes the job strictly faster than static NetAgg,
// which stays pinned to the congested boxes.
func TestDynamicNetAggMigratesUnderChurn(t *testing.T) {
	staticEnd, _ := runDynScenario(t, false)
	dynEnd, migrations := runDynScenario(t, true)
	if migrations == 0 {
		t.Fatalf("dynamic strategy never migrated despite the congestion burst")
	}
	if dynEnd >= staticEnd {
		t.Fatalf("dynamic job end %g not better than static %g (migrations=%d)",
			dynEnd, staticEnd, migrations)
	}
	t.Logf("static=%gs dynamic=%gs migrations=%d", staticEnd, dynEnd, migrations)
}

// TestDynamicNetAggQuietNoMigration verifies the hysteresis holds under
// normal load: with no congestion burst, the dynamic strategy plans the
// same flows as static NetAgg, never migrates, and matches its timing
// exactly.
func TestDynamicNetAggQuietNoMigration(t *testing.T) {
	topo1, _, _ := dynTopo(t)
	job1 := crossRackJob(topo1, 4, 4, 4e7)
	net1 := simnet.NewNetwork(topo1)
	jf1 := NetAgg{}.AddJob(net1, job1, 0.1)
	net1.Sim.Run()

	topo2, _, _ := dynTopo(t)
	job2 := crossRackJob(topo2, 4, 4, 4e7)
	net2 := simnet.NewNetwork(topo2)
	dyn := &DynamicNetAgg{}
	jf2 := dyn.AddJob(net2, job2, 0.1)
	net2.Sim.Run()

	if dyn.Migrations != 0 {
		t.Fatalf("quiet run migrated %d times", dyn.Migrations)
	}
	if len(jf1.All) != len(jf2.All) {
		t.Fatalf("flow counts differ: static %d, dynamic %d", len(jf1.All), len(jf2.All))
	}
	for i := range jf1.All {
		e1, e2 := net1.Sim.FlowEnd(jf1.All[i]), net2.Sim.FlowEnd(jf2.All[i])
		if e1 != e2 {
			t.Fatalf("flow %d end differs: static %g, dynamic %g", i, e1, e2)
		}
	}
}

// TestDynamicNetAggDeterministic pins byte-identical repeatability of a
// run with migrations — timers, truncation, and re-planning must all be
// deterministic.
func TestDynamicNetAggDeterministic(t *testing.T) {
	end1, mig1 := runDynScenario(t, true)
	end2, mig2 := runDynScenario(t, true)
	if end1 != end2 || mig1 != mig2 {
		t.Fatalf("dynamic runs diverge: (%g, %d) vs (%g, %d)", end1, mig1, end2, mig2)
	}
}
