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

// Replanner observability (the same test validates these after a forced
// migration): how many samples were scored, how many boxes are currently
// marked congested, and how migration activity breaks down.
var (
	// obsReplanTicks counts heartbeat samples the replanner scored.
	obsReplanTicks = obs.C("replan.ticks")
	// obsReplanCongested is the number of boxes currently congested.
	obsReplanCongested = obs.G("replan.congested_boxes")
	// obsReplanMigrations counts migrations triggered (one per box
	// crossing the hot threshold outside its cooldown window).
	obsReplanMigrations = obs.C("replan.migrations")
	// obsReplanMigratedReqs counts pending requests redirected by
	// migrations.
	obsReplanMigratedReqs = obs.C("replan.migrated_requests")
	// obsReplanCooldownHolds counts migrations suppressed because the
	// box re-heated inside its cooldown window.
	obsReplanCooldownHolds = obs.C("replan.cooldown_holds")
)
