package core

import "netagg/internal/obs"

// Registry handles for the agg-box layer (DESIGN.md §11). Resolved once
// at package init; when several boxes share a process (the in-process
// testbed) the metrics aggregate over all of them, matching the
// whole-deployment granularity of Figs 15-20.
var (
	// obsFramesAgg counts TData frames consumed by local aggregation
	// trees — the box-side view of the paper's partial-result streams.
	obsFramesAgg = obs.C("box.frames_aggregated")
	// obsBoxBytesIn / obsBoxBytesOut measure per-box traffic reduction:
	// out/in is the observed aggregation ratio α at the box tier (§4.1).
	obsBoxBytesIn  = obs.C("box.bytes_in")
	obsBoxBytesOut = obs.C("box.bytes_out")
	// obsMergedBytes counts the bytes local trees hand to Merge:
	// merged_bytes/bytes_in is how many times a box merges each byte on
	// its way through (once for a request that fits one batch, batchBytes;
	// at most twice for an α = 1 request whose aggregate fits a frame).
	obsMergedBytes = obs.C("box.merged_bytes")
	// obsBoxRequests counts requests completed (result emitted or error).
	obsBoxRequests = obs.C("box.requests")
	// obsBoxCombines counts aggregation tasks executed (§3.2.1).
	obsBoxCombines = obs.C("box.combines")
	// obsCutThrough counts merges executed cut-through: a combine task
	// pulled the next waiting part directly instead of re-queueing its
	// intermediate result on the scheduler (pipelined aggregation).
	obsCutThrough = obs.C("box.cutthrough_merges")
	// obsFanIn is the per-request fan-in batch size: how many partial
	// result frames one local tree consumed before emitting.
	obsFanIn = obs.H("box.fanin_parts")
	// obsFlushLatency is first-frame-to-emit latency per request in
	// microseconds — the box-tier component of job completion time
	// (Figs 15, 19).
	obsFlushLatency = obs.H("box.flush_latency_us")
	// obsSchedQueue is the scheduler backlog (queued, not yet started
	// tasks) across every scheduler in the process — the §3.2.1 WFQ
	// queue depth.
	obsSchedQueue = obs.G("box.sched_queue_depth")
	// obsBoxCancelled counts requests torn down by TCancel (subtree
	// migration superseded their epoch before they completed).
	obsBoxCancelled = obs.C("box.requests_cancelled")
	// obsDupFrames counts TData and TEnd frames dropped because their Seq
	// was not their source's next: duplicates of a re-sent stream, or
	// frames behind a gap a lost connection left.
	obsDupFrames = obs.C("box.dup_frames_dropped")
)
