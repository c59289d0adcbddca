package shim

import "netagg/internal/obs"

// Registry handles for the shim layers (DESIGN.md §11). Resolved once
// at package init.
var (
	// obsRedirectsSent counts recovery attempts the master shim pushed
	// to worker shims (§3.1 straggler/failure handling).
	obsRedirectsSent = obs.C("shim.redirects_sent")
	// obsRedirectsApplied counts redirects worker shims actually
	// applied (duplicates and stale attempts are dropped).
	obsRedirectsApplied = obs.C("shim.redirects_applied")
	// obsResentStreams counts the streams worker shims sent again
	// because the connection that had carried them was lost.
	obsResentStreams = obs.C("shim.resent_streams")
	// obsRetainedSends is how many sends the worker shims hold for
	// recovery resends: queued for expiry and not yet popped, whether a
	// TDone has ended them or not.
	obsRetainedSends = obs.G("shim.retained_sends")
	// obsEndedNotices counts the ended requests worker shims were told of
	// in TDone frames.
	obsEndedNotices = obs.C("shim.ended_notices")
	// obsDupAtMaster counts the TData, TEnd and TResult frames the master
	// shim dropped because their Seq was not their source's next: a
	// re-sent stream's duplicates, or frames behind a gap, of the current
	// attempt.
	obsDupAtMaster = obs.C("shim.dup_frames_dropped")
	// obsPartialBytes is the size distribution of the partial results
	// workers hand to their shim (the input side of Fig 16's traffic
	// reduction).
	obsPartialBytes = obs.H("shim.partial_bytes")
	// obsResultBytes is the per-job aggregated result size arriving at
	// the master (the output side of Fig 16).
	obsResultBytes = obs.H("shim.result_bytes")
	// obsAlphaPct is the observed per-job aggregation ratio α as a
	// percentage: master bytes in over worker-shim bytes out. Only
	// observable when both shims share the process (the testbed); the
	// paper treats α as a workload constant (§4.1), this measures it.
	obsAlphaPct = obs.H("shim.alpha_pct")
)
