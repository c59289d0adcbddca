package treeplan

import (
	"math"
	"math/bits"

	"netagg/internal/topology"
)

// LoadSignal is one box's load as the planner consumes it. The fields
// mirror the runtime metrics the deployment already exports (obs
// box.sched_queue_depth, box.flush_latency_us, cluster.hb_rtt_us); any
// subset may be zero when a signal is unavailable.
type LoadSignal struct {
	// QueueDepth is the box scheduler's pending task count.
	QueueDepth int64
	// FlushUs is a recent average of the box's request flush latency in
	// microseconds (arrival of the first partial to result emission).
	FlushUs int64
	// RTTUs is the failure monitor's heartbeat round-trip time to the
	// box in microseconds.
	RTTUs int64
}

// LoadAware plans the same path set as OnPath but chooses among the live
// boxes at each equipped switch by weighted rendezvous hashing: box i
// gets the key -wᵢ/ln(uᵢ), where uᵢ ∈ (0,1) is derived by hashing the box
// ID with the request hash and wᵢ = 1/(1+Box.Load) shrinks as the box's
// measured load grows; the highest key wins. An idle fleet therefore
// spreads requests exactly as uniformly as rendezvous hashing, while a
// hot box's share of new trees drops roughly in proportion to its load —
// replans after failures or stragglers steer around hot boxes instead of
// re-hashing onto them.
//
// The load enters the weight only through its power-of-two bucket
// (Box.Load, LoadBucket), so shims whose reads of the deployment lag each
// other still compute identical plans unless a box's load crosses a
// power-of-two boundary between their reads; the divergence window is one
// straggler timeout, after which the master's redirect re-synchronises
// every shim on a freshly planned attempt (DESIGN.md §14).
type LoadAware struct{}

// Plan implements Planner.
func (l LoadAware) Plan(topo Topology, req Request) Tree {
	return planWith(topo, req, l.pick)
}

// Route implements Planner.
func (l LoadAware) Route(topo Topology, req Request, worker string) []Box {
	return routeWith(topo, req, worker, l.pick)
}

// pick runs the weighted rendezvous election among the live boxes at one
// switch. Ties (impossible in practice: keys are distinct reals) resolve
// to the lowest deployment index, keeping the choice deterministic.
func (LoadAware) pick(alive []Box, hash uint64) Box {
	best := 0
	bestKey := math.Inf(-1)
	for i, b := range alive {
		w := 1 / float64(1+int(b.Load))
		key := -w / math.Log(hashUnit(b.ID, hash))
		if key > bestKey {
			best, bestKey = i, key
		}
	}
	return alive[best]
}

// LoadUs folds a load signal into one scalar in microsecond-ish units:
// a queued task is costed at 1ms of backlog, flush latency and heartbeat
// RTT enter directly. LoadBucket quantises it for Box.Load; Hysteresis.Step
// compares it against the policy's hot/cold thresholds directly. It
// saturates at math.MaxInt64: a sum that overflows, or a negative field (a
// wire value of 2⁶³ or more, wrapped), is the hottest load there is, never
// an idle one.
func LoadUs(sig LoadSignal) int64 {
	hi, q := bits.Mul64(uint64(sig.QueueDepth), 1000)
	sum, c1 := bits.Add64(q, uint64(sig.FlushUs), 0)
	sum, c2 := bits.Add64(sum, uint64(sig.RTTUs), 0)
	if hi|c1|c2 != 0 || sum > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(sum)
}

// LoadBucket quantises a load signal into its power-of-two bucket, the
// Box.Load that both the live deployment and the simulator hand planners.
func LoadBucket(sig LoadSignal) uint8 {
	return uint8(bits.Len64(uint64(LoadUs(sig))))
}

// hashUnit maps (box, request hash) to a uniform value in (0, 1) using
// the top 53 bits of the flow hash, offset so ln never sees 0 or 1.
func hashUnit(id, hash uint64) float64 {
	h := topology.FlowHash(0x10AD, id+1, hash)
	return (float64(h>>11) + 0.5) / float64(1<<53)
}
