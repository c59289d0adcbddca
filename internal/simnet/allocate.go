package simnet

import (
	"math"
	"slices"
)

// localRate is the transfer rate assigned to flows that cross no network
// resource (source and destination on the same server); it stands in for
// loopback/memory bandwidth and just needs to dwarf any link rate.
const localRate = 1e12

// bufEps is the buffer level (bits) below which a fed flow is considered
// production-limited rather than backlog-limited.
const bufEps = 1e-3

// maxCapIters bounds the fixed-point iteration between the max-min
// allocation and the production-rate caps of fed flows. The dependency
// graph is a tree of bounded depth (worker → ToR box → aggregation box →
// core box → master), so a handful of iterations reaches the fixed point.
const maxCapIters = 8

// allocate recomputes max-min fair rates after an event. Only the connected
// components of the flow-coupling graph — flows joined by a shared resource
// or by a streaming-dependency (input/consumer) edge — that contain a dirty
// flow or resource are re-waterfilled; rates everywhere else are carried
// over verbatim. Carrying is exact, not approximate: a clean component's
// allocation inputs (membership, capacities, ratios, and the
// production-limited flags, whose flips mark flows dirty) are unchanged
// since its last recomputation, and the per-component waterfill is a
// deterministic function of those inputs, so recomputing it would
// reproduce the carried rates bit for bit. FullRecompute mode does exactly
// that recomputation for every component on every event and is the
// equivalence oracle for this argument.
func (s *Sim) allocate(active []FlowID) {
	if s.NaiveAllocation {
		s.naiveAllocate(active)
		s.clearDirty()
		return
	}
	s.visitStamp++
	stamp := s.visitStamp
	reallocated := 0
	for _, id := range s.dirtyFlows {
		f := &s.flows[id]
		if f.state == stateActive && f.visit != stamp {
			reallocated += s.reallocComponent(id, stamp, true)
		}
	}
	for _, r := range s.dirtyRes {
		res := &s.resources[r]
		if res.visit == stamp {
			continue
		}
		for _, id := range res.active {
			if s.flows[id].visit != stamp {
				reallocated += s.reallocComponent(id, stamp, true)
			}
		}
	}
	if s.FullRecompute {
		// Oracle mode: rebuild the clean components too. They get a single
		// waterfill (no cap iteration): the exit invariant of
		// waterfillComponent guarantees the stored rates are exactly
		// waterfill(stored caps), so this rebuild is a bitwise no-op —
		// unless a dirty-marking rule is missing and the component's
		// allocation inputs changed without a mark, in which case the
		// rebuild produces different rates and the equivalence suite fails.
		// Dirty components must run through the identical warm-started cap
		// iteration in both modes: giving clean components the full
		// iteration here would advance unconverged fixed points further
		// than the incremental mode's carry and break equivalence for the
		// wrong reason.
		for _, id := range active {
			if s.flows[id].visit != stamp {
				reallocated += s.reallocComponent(id, stamp, false)
			}
		}
	}
	s.report.Alloc.FlowsReallocated += reallocated
	s.report.Alloc.FlowsCarried += len(active) - reallocated
	s.clearDirty()
}

// markFlowDirty queues an active flow for reallocation at the next event.
func (s *Sim) markFlowDirty(id FlowID) {
	f := &s.flows[id]
	if f.inDirty {
		return
	}
	f.inDirty = true
	s.dirtyFlows = append(s.dirtyFlows, id)
}

// markResDirty queues a resource: every flow still crossing it must be
// reallocated (used when a flow leaves the resource).
func (s *Sim) markResDirty(r ResourceID) {
	res := &s.resources[r]
	if res.inDirty {
		return
	}
	res.inDirty = true
	s.dirtyRes = append(s.dirtyRes, r)
}

func (s *Sim) clearDirty() {
	for _, id := range s.dirtyFlows {
		s.flows[id].inDirty = false
	}
	s.dirtyFlows = s.dirtyFlows[:0]
	for _, r := range s.dirtyRes {
		s.resources[r].inDirty = false
	}
	s.dirtyRes = s.dirtyRes[:0]
}

// reallocComponent collects the connected component of active flows
// containing seed (breadth-first over shared resources and streaming
// dependency edges, both directions), re-waterfills it, and returns its
// size. Members are sorted by FlowID before allocation so the arithmetic
// order — and therefore every float64 — is independent of how the
// component was discovered. dirty selects the full cap fixed-point
// iteration; a clean rebuild (FullRecompute oracle mode only) runs a
// single waterfill against the stored caps.
func (s *Sim) reallocComponent(seed FlowID, stamp int, dirty bool) int {
	comp := s.compScratch[:0]
	s.flows[seed].visit = stamp
	comp = append(comp, seed)
	for head := 0; head < len(comp); head++ {
		id := comp[head]
		f := &s.flows[id]
		for _, r := range f.spec.Resources {
			res := &s.resources[r]
			if res.visit == stamp {
				continue
			}
			res.visit = stamp
			for _, a := range res.active {
				af := &s.flows[a]
				if af.visit != stamp {
					af.visit = stamp
					comp = append(comp, a)
				}
			}
		}
		for _, in := range f.spec.Inputs {
			inf := &s.flows[in]
			if inf.state == stateActive && inf.visit != stamp {
				inf.visit = stamp
				comp = append(comp, in)
			}
		}
		for _, c := range s.consumers[id] {
			cf := &s.flows[c]
			if cf.state == stateActive && cf.visit != stamp {
				cf.visit = stamp
				comp = append(comp, c)
			}
		}
	}
	slices.Sort(comp)
	if dirty {
		s.waterfillComponent(comp)
	} else {
		s.waterfill(comp)
		s.report.Alloc.Waterfills++
	}
	n := len(comp)
	s.report.Alloc.Components++
	if n > s.report.Alloc.MaxComponent {
		s.report.Alloc.MaxComponent = n
	}
	s.compScratch = comp[:0]
	return n
}

// waterfillComponent computes the max-min fair rates of one coupling
// component, iterating to a fixed point with the streaming caps: a fed flow
// whose buffer is empty can send no faster than its inputs produce (§3.2.1
// back-pressure). Caps depend only on rates inside the component (every
// active input and consumer of a member is a member), so the fixed point is
// component-local.
//
// The loop warm-starts from the caps left by the component's previous
// recomputation (activation initialises a flow's cap to +Inf): between
// events the fixed point moves only as far as the event perturbed it, so a
// handful of iterations re-converges where a cold start from +Inf replays
// the whole transient every time.
//
// Exit invariant (load-bearing for the FullRecompute equivalence oracle):
// on every exit path the stored rates are exactly waterfill(stored caps) —
// when fresh caps agree with the stored ones within capsEqual tolerance the
// loop breaks WITHOUT storing them, and when the iteration budget runs out
// it breaks without the final cap update. Recomputing an untouched
// component is therefore a bitwise no-op: the first waterfill reproduces
// the stored rates, the fresh caps land inside the tolerance band again,
// and the loop exits with every float unchanged. That is why carrying a
// clean component's rates verbatim is exact, not approximate.
func (s *Sim) waterfillComponent(comp []FlowID) {
	touched := s.collectTouched(comp)

	// Fed members in feed-DAG depth order (FlowID-stable within a depth, so
	// the order is input-deterministic): the cap update pass walks them
	// shallow-to-deep, feeding each flow's estimated post-update rate into
	// the caps of its consumers. Without this a cap change crawls one tree
	// level per waterfill — the update pass only sees rates the last
	// waterfill produced — and a d-level aggregation tree needs d full
	// waterfills to re-converge after every event.
	fed := s.fedScratch[:0]
	for _, id := range comp {
		if len(s.flows[id].spec.Inputs) > 0 {
			fed = append(fed, id)
		}
	}
	slices.SortStableFunc(fed, func(a, b FlowID) int {
		return int(s.flows[a].depth - s.flows[b].depth)
	})
	s.fedScratch = fed

	for iter := 0; ; iter++ {
		s.waterfillTouched(comp, touched)
		s.report.Alloc.Waterfills++
		if iter == maxCapIters-1 {
			s.report.Alloc.Unconverged++
			return
		}
		for _, id := range comp {
			f := &s.flows[id]
			f.estRate = f.rate
		}
		changed := false
		for _, id := range fed {
			f := &s.flows[id]
			c := math.Inf(1)
			limited := false
			if !f.producedAll() && f.produced-f.sent <= bufEps {
				c = s.estProductionRate(f)
				limited = true
			}
			f.newCap, f.newLimited = c, limited
			if !capsEqual(c, f.cap) {
				changed = true
			}
			// Estimate this flow's rate under the new cap for its consumers
			// deeper in the DAG. A lowered cap binds immediately; a flow that
			// was riding its old cap is assumed to follow the cap upward (the
			// next waterfill corrects it if a network bottleneck binds first).
			// Estimates only steer the fixed-point trajectory: the exit check
			// and the stored caps go through the same waterfill-and-compare
			// cycle either way.
			est := f.rate
			if c < est {
				est = c
			} else if !math.IsInf(c, 1) && capsEqual(f.rate, f.cap) {
				est = c
			}
			f.estRate = est
		}
		if !changed {
			return
		}
		for _, id := range fed {
			f := &s.flows[id]
			f.cap = f.newCap
			f.capLimited = f.newLimited
		}
	}
}

// estProductionRate is productionRate over the cap-propagation rate
// estimates. Active inputs are always members of the component being
// recomputed (the coupling BFS follows input edges), so their estRate was
// initialised this pass; inactive flows keep estRate == rate (zero).
func (s *Sim) estProductionRate(f *flow) float64 {
	rate := 0.0
	for _, in := range f.spec.Inputs {
		rate += s.flows[in].estRate
	}
	return rate * f.ratio
}

// naiveAllocate is the seed ablation mode: a global naive equal-share fill
// with the cap fixed point over the whole active set, recomputed from
// scratch on every event.
func (s *Sim) naiveAllocate(active []FlowID) {
	for _, id := range active {
		s.flows[id].cap = math.Inf(1)
	}
	for iter := 0; iter < maxCapIters; iter++ {
		s.naiveFill(active)
		s.report.Alloc.Waterfills++
		changed := false
		for _, id := range active {
			f := &s.flows[id]
			c := math.Inf(1)
			if len(f.spec.Inputs) > 0 && !f.producedAll() && f.produced-f.sent <= bufEps {
				c = s.productionRate(f)
			}
			if !capsEqual(c, f.cap) {
				changed = true
			}
			f.cap = c
		}
		if !changed {
			break
		}
	}
}

func capsEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= eps || diff <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// shareEntry is a share-heap slot: a resource and a stale-but-lower-bound
// snapshot of its fair share avail/count. Progressive filling only ever
// raises a resource's share (a flow freezes at a rate no higher than every
// current share, so removing it cannot lower any share), so freezes skip
// the heap entirely and a stale key is repaired lazily — one in-place
// sift-down when its resource surfaces at the root. Each resource appears
// exactly once (inserted at build, never pushed again) and every operation
// happens at the root, so no position index is needed and the keys stay in
// one contiguous array the sift comparisons never leave.
type shareEntry struct {
	share float64
	res   ResourceID
}

// siftDown restores min-heap order below the root of h.
func siftDown(h []shareEntry) {
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].share < h[smallest].share {
			smallest = l
		}
		if r < n && h[r].share < h[smallest].share {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// heapify establishes min-heap order over h in O(len(h)).
func heapify(h []shareEntry) {
	n := len(h)
	for root := n/2 - 1; root >= 0; root-- {
		i := root
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < n && h[l].share < h[smallest].share {
				smallest = l
			}
			if r < n && h[r].share < h[smallest].share {
				smallest = r
			}
			if smallest == i {
				break
			}
			h[i], h[smallest] = h[smallest], h[i]
			i = smallest
		}
	}
}

// naiveFill assigns every active flow the minimum equal share over its
// resources, capped by the flow's own cap. Unlike max-min fairness it never
// redistributes capacity left behind by flows bottlenecked elsewhere.
func (s *Sim) naiveFill(active []FlowID) {
	s.stamp++
	for _, id := range active {
		f := &s.flows[id]
		for _, r := range f.spec.Resources {
			res := &s.resources[r]
			if res.stamp != s.stamp {
				res.stamp = s.stamp
				res.count = 0
			}
			res.count++
		}
	}
	for _, id := range active {
		f := &s.flows[id]
		rate := math.Min(f.cap, localRate)
		for _, r := range f.spec.Resources {
			res := &s.resources[r]
			if share := res.capacity / float64(res.count); share < rate {
				rate = share
			}
		}
		if rate < 0 {
			rate = 0
		}
		f.rate = rate
	}
}

// collectTouched gathers the distinct resources crossed by flows and caches
// each one's member-flow count in count0, so the cap fixed-point loop pays
// the flow-path walk once per component instead of once per iteration.
func (s *Sim) collectTouched(flows []FlowID) []ResourceID {
	s.stamp++
	touched := s.touchedScratch[:0]
	for _, id := range flows {
		f := &s.flows[id]
		for _, r := range f.spec.Resources {
			res := &s.resources[r]
			if res.stamp != s.stamp {
				res.stamp = s.stamp
				res.count0 = 0
				touched = append(touched, r)
			}
			res.count0++
		}
	}
	s.touchedScratch = touched
	return touched
}

// waterfill runs one progressive-filling pass over a standalone flow set.
func (s *Sim) waterfill(flows []FlowID) {
	s.waterfillTouched(flows, s.collectTouched(flows))
}

// waterfillTouched runs progressive filling over one set of flows: the rate
// of every unfrozen flow rises uniformly until either a resource saturates
// (its unfrozen flows freeze at the fair share) or a flow reaches its cap
// (it freezes at the cap). This is the standard max-min fair allocation
// with per-flow caps that models TCP's steady-state sharing (§4.1:
// "implements TCP max-min flow fairness"). The caller guarantees that
// every active flow sharing a resource with a member is itself a member and
// that touched is collectTouched(flows).
func (s *Sim) waterfillTouched(flows []FlowID, touched []ResourceID) {
	for _, r := range touched {
		res := &s.resources[r]
		res.avail = res.capacity
		res.count = res.count0
	}
	for _, id := range flows {
		f := &s.flows[id]
		f.frozen = false
		f.rate = 0
	}

	unfrozen := len(flows)

	deadInHeap := 0

	freeze := func(id FlowID, rate float64) {
		f := &s.flows[id]
		f.frozen = true
		f.rate = rate
		for _, r := range f.spec.Resources {
			res := &s.resources[r]
			res.avail -= rate
			if res.avail < 0 {
				res.avail = 0
			}
			res.count--
			if res.count == 0 {
				deadInHeap++
			}
		}
		unfrozen--
	}

	// Flows with no network resources are only production/cap limited.
	// Flows with zero cap cannot send this round.
	capped := s.cappedScratch[:0]
	for _, id := range flows {
		f := &s.flows[id]
		if f.cap <= eps {
			freeze(id, 0)
			continue
		}
		if len(f.spec.Resources) == 0 {
			freeze(id, math.Min(f.cap, localRate))
			continue
		}
		if !math.IsInf(f.cap, 1) {
			capped = append(capped, id)
		}
	}
	s.cappedScratch = capped
	slices.SortFunc(capped, func(a, b FlowID) int {
		ca, cb := s.flows[a].cap, s.flows[b].cap
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		default:
			// Equal caps: order by FlowID so the freeze order — and with it
			// every downstream float — is input-deterministic.
			return int(a - b)
		}
	})
	nextCap := 0

	// Seed the share heap with every touched resource that still has
	// unfrozen flows (the zero-cap and resource-free freezes above already
	// updated counts, but nothing is heaped yet, so shares are fresh here).
	h := s.heapScratch[:0]
	for _, r := range touched {
		res := &s.resources[r]
		if res.count > 0 {
			h = append(h, shareEntry{share: res.avail / float64(res.count), res: r})
		}
	}
	heapify(h)
	// Freezes before the seed above happened outside the heap; only deaths
	// from here on refer to heaped entries.
	deadInHeap = 0

	for unfrozen > 0 {
		// Most resources eventually saturate, and sifting each corpse out of
		// the root individually costs a full-depth sift. Once a quarter of
		// the heap is dead, compact it wholesale and re-heapify: O(1)
		// amortised per dead entry.
		if deadInHeap*4 >= len(h) && len(h) >= 16 {
			kept := h[:0]
			for _, e := range h {
				if s.resources[e.res].count > 0 {
					kept = append(kept, e)
				}
			}
			h = kept
			heapify(h)
			deadInHeap = 0
		}

		// Surface the resource with the smallest current share: every stored
		// key is a lower bound, so the root is the true minimum once its own
		// key is fresh.
		smin := math.Inf(1)
		var rmin ResourceID = -1
		for len(h) > 0 {
			e := h[0]
			res := &s.resources[e.res]
			if res.count <= 0 {
				// Saturated earlier: drop the dead entry.
				n := len(h) - 1
				h[0] = h[n]
				h = h[:n]
				siftDown(h)
				continue
			}
			cur := res.avail / float64(res.count)
			if cur > e.share*(1+1e-12)+eps {
				// Stale (share grew since last repair): refresh in place.
				h[0].share = cur
				siftDown(h)
				continue
			}
			smin = cur
			rmin = e.res
			break
		}

		// Next binding flow cap.
		for nextCap < len(capped) && s.flows[capped[nextCap]].frozen {
			nextCap++
		}
		capmin := math.Inf(1)
		if nextCap < len(capped) {
			capmin = s.flows[capped[nextCap]].cap
		}

		switch {
		case capmin <= smin:
			// Caps bind first: freeze every unfrozen flow whose cap has been
			// reached at that cap.
			for nextCap < len(capped) && s.flows[capped[nextCap]].cap <= smin+eps {
				id := capped[nextCap]
				if !s.flows[id].frozen {
					freeze(id, s.flows[id].cap)
				}
				nextCap++
			}
		case rmin >= 0:
			// A resource saturates: freeze its unfrozen flows at the share.
			// The last freeze drops its count to zero and unheaps it.
			res := &s.resources[rmin]
			for _, id := range res.active {
				if !s.flows[id].frozen {
					freeze(id, smin)
				}
			}
		default:
			// No binding resource and no finite cap: remaining flows are
			// unconstrained (should not happen — every network flow crosses
			// at least one resource). Freeze at local rate to make progress.
			for _, id := range flows {
				if !s.flows[id].frozen {
					freeze(id, localRate)
				}
			}
		}
	}
	s.heapScratch = h[:0]
}
