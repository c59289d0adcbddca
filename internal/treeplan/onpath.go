package treeplan

import "time"

// OnPath is the paper's hash-on-path planner (§3.1): at each equipped
// switch on a worker's path towards the master, the box is selected by
// the request/tree hash modulo the live boxes there. Dead boxes are
// skipped, which is how replanning after a failure works — the hash is
// unchanged, so the surviving boxes' choices shift deterministically and
// every shim shifts the same way.
//
// TestOnPathMatchesLegacyPlanOracle pins it to an independent replay of
// that algorithm.
type OnPath struct{}

// Plan implements Planner.
func (OnPath) Plan(topo Topology, req Request) Tree {
	return planWith(topo, req, pickByHash)
}

// Route implements Planner.
func (OnPath) Route(topo Topology, req Request, worker string) []Box {
	return routeWith(topo, req, worker, pickByHash)
}

// pickByHash is the paper's choice: the hash modulo the live boxes.
func pickByHash(alive []Box, hash uint64) Box {
	return alive[hash%uint64(len(alive))]
}

// observePlan records the planner metrics shared by all implementations:
// planning latency, replan count (attempt > 0), dead boxes skipped, and
// congested boxes routed around.
func observePlan(start time.Time, req Request, deadSkipped, slowAvoided int) {
	obsPlanComputeUs.Observe(time.Since(start).Microseconds())
	if req.Attempt > 0 {
		obsPlanReplans.Inc()
	}
	if deadSkipped > 0 {
		obsPlanDeadSkipped.Add(int64(deadSkipped))
	}
	if slowAvoided > 0 {
		obsPlanSlowAvoided.Add(int64(slowAvoided))
	}
}
