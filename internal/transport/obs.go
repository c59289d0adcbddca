package transport

import "netagg/internal/obs"

// Registry handles for the transport layer. Resolved once at package
// init so the per-frame path pays only atomic increments; they mirror
// the per-endpoint Stats counters into the process-wide registry
// (DESIGN.md §11), which is what the /debug/netagg/metrics endpoint
// serves.
var (
	obsFramesIn     = obs.C("transport.frames_in")
	obsBytesIn      = obs.C("transport.bytes_in")
	obsBytesOut     = obs.C("transport.bytes_out")
	obsDials        = obs.C("transport.dials")
	obsDialFailures = obs.C("transport.dial_failures")
	obsReconnects   = obs.C("transport.reconnects")
	obsBackoffSkips = obs.C("transport.backoff_skips")
	obsAccepted     = obs.C("transport.accepted")
	obsActiveConns  = obs.G("transport.active_conns")

	// Batched write path (DESIGN.md §15): one writev per flush, the
	// frames and bytes it wrote (batch_frames is the process's frames
	// out: every frame leaves in a writev), and the admission/teardown
	// events around the send queue. mean(transport.batch_size) collapsing to 1
	// means flushes stopped coalescing — see OPERATIONS.md §8.
	obsWritevCalls = obs.C("transport.writev_calls")
	obsBatchFrames = obs.C("transport.batch_frames")
	obsBatchBytes  = obs.C("transport.batch_bytes")
	obsBatchSize   = obs.H("transport.batch_size")
	obsQueueWaits  = obs.C("transport.sendq_waits")
	obsQueueDrops  = obs.C("transport.sendq_dropped")
)
