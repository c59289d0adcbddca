package strategies

import (
	"netagg/internal/simnet"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
	"netagg/internal/workload"
)

// dynInterval is DynamicNetAgg's scoring tick in simulated seconds, the
// simulator analogue of the live failure monitor's heartbeat.
const dynInterval = 0.002

// dynPolicy is DynamicNetAgg's hysteresis. Load is scored as
// treeplan.LoadUs over a queue depth equal to the number of flows
// currently crossing the box's processing resource, so HotLoadUs of
// N×1000 means "N concurrent flows on the box": a box is hot at ≥24
// concurrent flows for 2 consecutive ticks, cold again at ≤8. The quiet
// per-box job load of Fig replan stays under both bounds, so its churn
// factor 0 behaves exactly like the static strategy.
var dynPolicy = treeplan.ReplanPolicy{
	HotLoadUs: 24000, ColdLoadUs: 8000,
	HotStreak: 2, CooldownTicks: 20,
}

// DynamicNetAgg is NetAgg with congestion-aware dynamic aggregation trees
// (DESIGN.md §16): it plans jobs exactly like the zero NetAgg (one tree,
// treeplan.OnPath), then keeps scoring every agg box each dynInterval
// through the same treeplan.Hysteresis that the live fabric's failure
// monitor steps.
// When a box turns congested mid-job, every incomplete job routed through
// it migrates: the job's current flows are truncated and the tree is
// re-planned against a topology view with the congested boxes marked
// Slow, re-sending the partial results in full from the workers — the
// simulator's rendition of the attempt-epoch full resend the live shims
// perform (§3.1 recovery reused for migration).
//
// A DynamicNetAgg instance is stateful and not safe for concurrent use:
// give each simulation run its own instance (figures construct one per
// scenario cell).
type DynamicNetAgg struct {
	// Migrations counts subtree migrations performed (one per affected
	// job per congestion event), summed over every run this instance saw.
	Migrations int

	state map[*simnet.Sim]*dynState
}

// dynState is the per-simulation replanning state.
type dynState struct {
	net   *simnet.Network
	slow  map[topology.NodeID]bool
	boxes []topology.NodeID
	hyst  []treeplan.Hysteresis // boxes[i]'s congestion state
	jobs  []*dynJob
}

// dynJob tracks one job's current flow set across migrations.
type dynJob struct {
	job    *workload.Job
	alpha  float64
	extra  *ExtraFlows
	live   []simnet.FlowID // every flow of the current attempt
	finals []simnet.FlowID // the current attempt's result flows
	boxes  map[topology.NodeID]bool
}

// done reports whether the job's current result flows have all landed.
func (dj *dynJob) done(sim *simnet.Sim) bool {
	for _, id := range dj.finals {
		if !sim.FlowDone(id) {
			return false
		}
	}
	return true
}

// Name implements Strategy.
func (n *DynamicNetAgg) Name() string { return "netagg-dynamic" }

// view is the planner's congestion-marked topology.
func (st *dynState) view() treeplan.Topology {
	return simTopo{topo: st.net.Topo.T, slow: st.slow}
}

// AddJob implements Strategy.
func (n *DynamicNetAgg) AddJob(net *simnet.Network, job *workload.Job, alpha float64) JobFlows {
	st := n.stateFor(net)
	dj := &dynJob{job: job, alpha: alpha, extra: &ExtraFlows{}, boxes: make(map[topology.NodeID]bool)}
	var jf JobFlows
	for _, b := range (NetAgg{}).addTree(net, st.view(), job, alpha, 0, 1, 0, &jf) {
		dj.boxes[b] = true
	}
	dj.live = jf.All
	dj.finals = jf.Finals
	jf.Extra = dj.extra
	st.jobs = append(st.jobs, dj)
	return jf
}

// stateFor returns (building on first use) the replanning state of one
// simulation and arms its first tick.
func (n *DynamicNetAgg) stateFor(net *simnet.Network) *dynState {
	if n.state == nil {
		n.state = make(map[*simnet.Sim]*dynState)
	}
	if st, ok := n.state[net.Sim]; ok {
		return st
	}
	boxes := net.Topo.T.AggBoxes()
	st := &dynState{
		net:   net,
		slow:  make(map[topology.NodeID]bool),
		boxes: boxes,
		hyst:  make([]treeplan.Hysteresis, len(boxes)),
	}
	n.state[net.Sim] = st
	// Self-rearming tick: the chain stops once every job has delivered,
	// so the timers never keep an otherwise finished simulation alive.
	var tick func()
	tick = func() {
		if n.tick(st) {
			net.Sim.At(net.Sim.Now()+dynInterval, tick)
		}
	}
	net.Sim.At(dynInterval, tick)
	return st
}

// tick is one scoring pass; it reports whether any job is still running
// (the re-arm condition).
func (n *DynamicNetAgg) tick(st *dynState) bool {
	sim := st.net.Sim
	// Score every box and step the hysteresis; collect the boxes whose
	// transition to congested should trigger a migration this tick.
	var migrateFrom []topology.NodeID
	for i, b := range st.boxes {
		depth := int64(sim.ResourceActiveFlows(st.net.Topo.ProcResource(b)))
		hot, changed, migrate := st.hyst[i].Step(dynPolicy, treeplan.LoadUs(treeplan.LoadSignal{QueueDepth: depth}))
		if !changed {
			continue
		}
		if !hot {
			delete(st.slow, b)
			continue
		}
		st.slow[b] = true
		if migrate {
			migrateFrom = append(migrateFrom, b)
		}
	}
	for _, b := range migrateFrom {
		n.migrate(st, b)
	}
	for _, dj := range st.jobs {
		if !dj.done(sim) {
			return true
		}
	}
	return false
}

// migrate moves every incomplete job off a congested box: the current
// attempt's flows are truncated and the tree re-planned and re-sent in
// full from the current time — the simulator analogue of the live
// master's Supersede → TRedirect → attempt-epoch full resend.
func (n *DynamicNetAgg) migrate(st *dynState, box topology.NodeID) {
	sim := st.net.Sim
	now := sim.Now()
	for _, dj := range st.jobs {
		if !dj.boxes[box] || dj.done(sim) {
			continue
		}
		for _, id := range dj.live {
			sim.Truncate(id)
		}
		var tmp JobFlows
		dj.boxes = make(map[topology.NodeID]bool)
		for _, b := range (NetAgg{}).addTree(st.net, st.view(), dj.job, dj.alpha, 0, 1, now, &tmp) {
			dj.boxes[b] = true
		}
		dj.live = tmp.All
		dj.finals = tmp.Finals
		dj.extra.All = append(dj.extra.All, tmp.All...)
		dj.extra.Finals = append(dj.extra.Finals, tmp.Finals...)
		n.Migrations++
	}
}
