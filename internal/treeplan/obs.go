package treeplan

import "netagg/internal/obs"

// Planner observability (testbed's TestDebugEndpointCoversEveryLayer
// validates these after a job): how long planning takes, how often
// requests are replanned after the first attempt, and how many dead boxes
// plans had to route around.
var (
	// obsPlanComputeUs is the latency of one Plan call in microseconds.
	obsPlanComputeUs = obs.H("plan.compute_us")
	// obsPlanReplans counts plans for recovery attempts (Attempt > 0).
	obsPlanReplans = obs.C("plan.replans")
	// obsPlanDeadSkipped counts dead boxes excluded from plans.
	obsPlanDeadSkipped = obs.C("plan.dead_boxes_skipped")
	// obsPlanSlowAvoided counts congested boxes plans routed around.
	obsPlanSlowAvoided = obs.C("plan.slow_boxes_avoided")
)
