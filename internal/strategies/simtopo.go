package strategies

import (
	"fmt"
	"strconv"

	"netagg/internal/topology"
	"netagg/internal/treeplan"
)

// simTopo adapts the simulated network to treeplan.Topology so the same
// planners that drive the live fabric's shims plan simnet trees. Node
// names are decimal NodeIDs and a box's planner ID is its NodeID — both
// conversions are pure (no per-topology name tables), so planning a job
// allocates nothing beyond the plan itself.
type simTopo struct {
	topo *topology.Topology
	// slow marks boxes the dynamic-tree strategy currently considers
	// congested; planners see them as Box.Slow and route around them
	// where the switch has a cold alternative. Nil for static planning.
	slow map[topology.NodeID]bool
	// load is NetAgg.Load, each box's load signal; nil for an idle
	// fleet.
	load map[topology.NodeID]treeplan.LoadSignal
}

// simNodeName renders a simulated node as a planner host name.
func simNodeName(id topology.NodeID) string { return strconv.Itoa(int(id)) }

// simNodeID parses a planner host name back to a simulated node.
func simNodeID(name string) topology.NodeID {
	n, err := strconv.Atoi(name)
	if err != nil {
		panic(fmt.Sprintf("strategies: non-simnet node name %q reached the planner adapter", name))
	}
	return topology.NodeID(n)
}

// PathSwitches implements treeplan.Topology: the switches on the ECMP
// path the hash pins between worker and master.
func (s simTopo) PathSwitches(worker, master string, hash uint64) []string {
	path := s.topo.PathNodes(simNodeID(worker), simNodeID(master), hash)
	switches := s.topo.SwitchesOn(path)
	out := make([]string, len(switches))
	for i, sw := range switches {
		out[i] = simNodeName(sw)
	}
	return out
}

// BoxesAt implements treeplan.Topology. Simulated boxes cannot die, so
// none are flagged Dead; failure experiments run on the live fabric.
// Boxes the dynamic-tree strategy has marked congested carry Slow, and
// every box carries the bucket of its load signal as Load.
func (s simTopo) BoxesAt(sw string) []treeplan.Box {
	boxes := s.topo.BoxesAt(simNodeID(sw))
	out := make([]treeplan.Box, len(boxes))
	for i, b := range boxes {
		out[i] = treeplan.Box{ID: uint64(b), Switch: sw, Slow: s.slow[b], Load: treeplan.LoadBucket(s.load[b])}
	}
	return out
}
