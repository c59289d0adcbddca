package cluster

import "netagg/internal/obs"

// Registry handles for the failure monitor (DESIGN.md §11). Resolved
// once at package init.
var (
	// obsHBRTT is the round-trip time of successful heartbeat probes in
	// microseconds (§3.1: the monitor's view of box responsiveness).
	obsHBRTT = obs.H("cluster.hb_rtt_us")
	// obsHBMisses counts heartbeat intervals that elapsed without an
	// echo. Failure is declared after deadAfter consecutive ones.
	obsHBMisses = obs.C("cluster.hb_misses")
	// obsFailures counts boxes declared dead by the monitor.
	obsFailures = obs.C("cluster.failures_detected")
	// obsRevivals counts boxes marked alive again after coming back.
	obsRevivals = obs.C("cluster.revivals")
	// obsDetectMs is the failure time-to-detection in milliseconds:
	// from the box's last successful heartbeat to the moment the
	// monitor declared it dead. Bounded by deadAfter×interval + interval.
	obsDetectMs = obs.H("cluster.detect_ms")
)

// Congestion scoring (DESIGN.md §16; testbed's
// TestDebugEndpointCoversEveryLayer validates these after a forced
// migration): how many samples were scored, how many boxes are currently
// marked congested, and how migration activity breaks down.
var (
	// obsReplanTicks counts heartbeat samples the monitor scored.
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
