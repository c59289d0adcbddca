// Package simnet is a discrete-event, fluid flow-level simulator of a data
// centre network. It stands in for the packet-level OMNeT++ simulator of the
// paper (§4.1): flows traverse a fixed path of resources (directed links,
// plus agg-box processing capacities), bandwidth is shared with TCP-style
// max-min fairness (progressive filling with per-flow rate caps), and
// aggregation is modelled as *streaming* dependencies — the flow leaving an
// aggregation point can send no faster than α times the aggregate arrival
// rate of its input flows, matching NetAgg's pipelined local aggregation
// trees (§3.2.1) and the cut-through behaviour of the packet simulation.
//
// All quantities use bits and seconds.
package simnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// ResourceID identifies a capacity-constrained resource (a directed link or
// an agg box's processing rate).
type ResourceID int

// FlowID identifies a flow.
type FlowID int

// ResourceKind distinguishes links from processing capacities, so per-link
// traffic statistics (Fig 9) exclude processing resources.
type ResourceKind int

const (
	// KindLink is a directed network link.
	KindLink ResourceKind = iota
	// KindProc is an agg box's aggregation processing capacity R (§2.4).
	KindProc
)

// resource is a capacity shared by the flows crossing it.
type resource struct {
	kind     ResourceKind
	capacity float64
	ref      int // external reference (e.g. topology.LinkID), for reporting

	active []FlowID // flows currently crossing this resource
	slots  []int32  // slots[i]: index of this resource in flows[active[i]].spec.Resources
	bits   float64  // total bits carried (links only; Fig 9)

	// scratch state for the allocator
	avail   float64
	count   int
	count0  int // member-flow count, cached for the component's cap loop
	stamp   int
	visit   int  // component-BFS stamp
	inDirty bool // queued in Sim.dirtyRes
}

type flowState int

const (
	statePending flowState = iota
	stateActive
	stateDone
)

// FlowClass labels flows for metrics: the paper separates aggregatable
// (partition/aggregation) traffic from non-aggregatable background traffic
// (§4.1, Figs 6-7).
type FlowClass int

const (
	// ClassBackground is non-aggregatable traffic.
	ClassBackground FlowClass = iota
	// ClassAggregation is traffic belonging to a partition/aggregation job.
	ClassAggregation
)

// FlowSpec describes a flow to add to the simulation.
type FlowSpec struct {
	// Resources is the ordered list of resources the flow crosses.
	Resources []ResourceID
	// Bits is the total size of the flow.
	Bits float64
	// StaticBits is the portion of Bits available at start time (a worker's
	// own partial result). The remainder, Bits-StaticBits, is produced by
	// aggregating the Inputs as they arrive.
	StaticBits float64
	// Inputs are upstream flows feeding this flow through an aggregation
	// point. Empty for ordinary flows.
	Inputs []FlowID
	// Start is the earliest start time (used for stragglers, Fig 14).
	Start float64
	// Class labels the flow for metrics.
	Class FlowClass
	// Job groups the flows of one partition/aggregation job; -1 for
	// background flows.
	Job int
	// Final marks the flow that delivers the job's fully aggregated result
	// to the master; job completion time is this flow's end time.
	Final bool
}

type flow struct {
	spec  FlowSpec
	ratio float64 // (Bits-StaticBits) / Σ input Bits; 0 if no inputs

	state     flowState
	sent      float64
	produced  float64
	rate      float64
	cap       float64
	frozen    bool
	truncated bool    // stopped early by Truncate; retires at sent
	start     float64 // actual activation time
	end       float64

	inputsDone int

	// incremental-allocator state
	resPos     []int32 // position of this flow in resources[spec.Resources[j]].active
	visit      int     // component-BFS stamp
	depth      int32   // feed-DAG depth: 0 for source flows, 1+max(inputs) otherwise
	inDirty    bool    // queued in Sim.dirtyFlows
	capLimited bool    // production-cap branch taken at the last allocation

	// cap-propagation scratch (valid only inside waterfillComponent's cap
	// update pass; estRate additionally tracks rate for non-active flows so
	// estProductionRate can sum inputs unconditionally)
	estRate    float64
	newCap     float64
	newLimited bool
}

// Sim is a flow-level simulation instance. Build it by adding resources and
// flows, then call Run once. A Sim is not safe for concurrent use.
type Sim struct {
	resources []resource
	flows     []flow
	consumers [][]FlowID // consumers[i]: flows that take input from flow i

	// StoreAndForward, when true, disables streaming: a fed flow starts only
	// after all its inputs complete. Used by the ablation benchmarks.
	StoreAndForward bool

	// NaiveAllocation, when true, replaces progressive-filling max-min
	// fairness with the naive per-resource equal share (each flow gets the
	// minimum of capacity/flow-count over its resources). Faster but
	// under-utilises links whose flows are bottlenecked elsewhere; used by
	// the simulator-accuracy ablation benchmark.
	NaiveAllocation bool

	// FullRecompute, when true, re-waterfills every coupling component on
	// every event instead of only the dirty ones. It is the debug oracle the
	// incremental allocator is validated against: both modes must produce
	// byte-identical flow timings, link counters, and event counts.
	FullRecompute bool

	now    float64
	ran    bool
	report RunStats

	// timers are pending At callbacks, sorted by firing time (FIFO within
	// a time). They drive mid-run injection: background-traffic churn and
	// the dynamic-tree replanner (§ dynamic trees, DESIGN.md §16).
	timers []simTimer

	// allocator scratch, reused across events to avoid per-event allocation
	stamp          int
	touchedScratch []ResourceID
	cappedScratch  []FlowID
	fedScratch     []FlowID
	heapScratch    []shareEntry

	// incremental-allocator state
	visitStamp  int
	dirtyFlows  []FlowID
	dirtyRes    []ResourceID
	compScratch []FlowID
}

// RunStats summarises a completed run.
type RunStats struct {
	// Duration is the simulated time at which the last flow completed.
	Duration float64
	// Events is the number of simulation events processed.
	Events int
	// Alloc counts the allocator's work. Unlike Duration and Events it
	// depends on the allocation mode: FullRecompute performs strictly more
	// component recomputations for the same simulated behaviour.
	Alloc AllocStats
}

// AllocStats counts max-min allocator work, making incremental-allocator
// savings visible in reported stats rather than only in wall clock.
type AllocStats struct {
	// Waterfills is the number of progressive-filling passes (one per
	// component per cap fixed-point iteration).
	Waterfills int
	// Components is the number of coupling components re-waterfilled.
	Components int
	// FlowsReallocated is the total number of flow-slots re-waterfilled
	// (component sizes summed over all events).
	FlowsReallocated int
	// FlowsCarried is the total number of active flow-slots whose rates
	// were carried over without recomputation.
	FlowsCarried int
	// MaxComponent is the largest coupling component seen.
	MaxComponent int
	// Unconverged is the number of component recomputations whose
	// production-cap fixed point was still moving after maxCapIters
	// iterations (the allocation is then the last iterate).
	Unconverged int
}

// New returns an empty simulation.
func New() *Sim {
	return &Sim{}
}

// AddResource adds a capacity-constrained resource and returns its ID.
func (s *Sim) AddResource(kind ResourceKind, capacity float64, ref int) ResourceID {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource capacity must be > 0, got %g", capacity))
	}
	id := ResourceID(len(s.resources))
	s.resources = append(s.resources, resource{kind: kind, capacity: capacity, ref: ref})
	return id
}

// AddFlow adds a flow and returns its ID. Flows must be added after the
// flows they take input from.
func (s *Sim) AddFlow(spec FlowSpec) FlowID {
	if spec.Bits < 0 || spec.StaticBits < 0 || spec.StaticBits > spec.Bits+1e-9 {
		panic(fmt.Sprintf("simnet: invalid flow sizes bits=%g static=%g", spec.Bits, spec.StaticBits))
	}
	if spec.Start < 0 {
		panic("simnet: flow start time must be >= 0")
	}
	id := FlowID(len(s.flows))
	var inputBits float64
	for _, in := range spec.Inputs {
		if int(in) >= int(id) {
			panic("simnet: flow inputs must be added before the flow itself")
		}
		inputBits += s.flows[in].spec.Bits
	}
	f := flow{spec: spec, state: statePending}
	if len(spec.Inputs) > 0 && inputBits > 0 {
		f.ratio = (spec.Bits - spec.StaticBits) / inputBits
	}
	for _, in := range spec.Inputs {
		if d := s.flows[in].depth + 1; d > f.depth {
			f.depth = d
		}
	}
	s.flows = append(s.flows, f)
	s.consumers = append(s.consumers, nil)
	for _, in := range spec.Inputs {
		s.consumers[in] = append(s.consumers[in], id)
	}
	return id
}

// simTimer is one pending At callback.
type simTimer struct {
	at float64
	fn func()
}

// At schedules fn to run at simulated time t, at an event boundary (all
// fluid state is advanced to t before fn runs). Callbacks may add flows
// with AddFlow, stop flows with Truncate, read simulation state through
// the accessors, and schedule further timers — this is how mid-run
// interventions (background-traffic churn, dynamic-tree replanning) are
// modelled. Timers at the same t fire in scheduling order. A t at or
// before the current simulated time fires at the next event boundary.
func (s *Sim) At(t float64, fn func()) {
	if t < 0 {
		panic("simnet: timer time must be >= 0")
	}
	i := sort.Search(len(s.timers), func(i int) bool { return s.timers[i].at > t })
	s.timers = slices.Insert(s.timers, i, simTimer{at: t, fn: fn})
}

// Truncate stops a flow early: it keeps whatever it has sent so far and
// completes at the current simulated time (a pending flow is cancelled
// outright and completes at zero size the moment it would have started).
// The flow's consumers see it as a finished input — they will not receive
// the bits it never sent, so a caller migrating an aggregation subtree
// must truncate the fed flows of the subtree as well and re-inject
// replacement flows (the full-resend recovery of §3.1). Valid before Run
// or from an At callback.
func (s *Sim) Truncate(id FlowID) {
	f := &s.flows[id]
	switch f.state {
	case stateDone:
		return
	case statePending:
		f.spec.Bits = 0
		f.spec.StaticBits = 0
		f.truncated = true
	case stateActive:
		f.spec.Bits = f.sent
		if f.spec.StaticBits > f.spec.Bits {
			f.spec.StaticBits = f.spec.Bits
		}
		f.truncated = true
		s.markFlowDirty(id)
	}
}

// Now returns the current simulated time (0 before Run; only meaningful
// mid-run from an At callback).
func (s *Sim) Now() float64 { return s.now }

// FlowSent returns the bits a flow has sent so far.
func (s *Sim) FlowSent(id FlowID) float64 { return s.flows[id].sent }

// FlowDone reports whether a flow has completed (or been truncated and
// retired).
func (s *Sim) FlowDone(id FlowID) bool { return s.flows[id].state == stateDone }

// FlowTruncated reports whether a flow was stopped early by Truncate.
func (s *Sim) FlowTruncated(id FlowID) bool { return s.flows[id].truncated }

// ResourceActiveFlows returns the number of flows currently crossing a
// resource — the simulator's stand-in for an agg box's scheduler queue
// depth when sampled on its processing resource.
func (s *Sim) ResourceActiveFlows(id ResourceID) int {
	return len(s.resources[id].active)
}

// NumFlows reports the number of flows added.
func (s *Sim) NumFlows() int { return len(s.flows) }

// FlowEnd returns the completion time of a flow. Valid after Run.
func (s *Sim) FlowEnd(id FlowID) float64 { return s.flows[id].end }

// FlowStart returns the activation time of a flow. Valid after Run.
func (s *Sim) FlowStart(id FlowID) float64 { return s.flows[id].start }

// FlowSpecOf returns the spec a flow was created with.
func (s *Sim) FlowSpecOf(id FlowID) FlowSpec { return s.flows[id].spec }

// FCT returns a flow's completion time measured from its spec'd start time,
// the paper's FCT metric.
func (s *Sim) FCT(id FlowID) float64 { return s.flows[id].end - s.flows[id].spec.Start }

// LinkBits returns the total traffic carried by a link resource (Fig 9).
func (s *Sim) LinkBits(id ResourceID) float64 { return s.resources[id].bits }

// ResourceKindOf returns the kind of a resource.
func (s *Sim) ResourceKindOf(id ResourceID) ResourceKind { return s.resources[id].kind }

// ResourceRef returns the external reference a resource was created with.
func (s *Sim) ResourceRef(id ResourceID) int { return s.resources[id].ref }

// Stats returns the run summary. Valid after Run.
func (s *Sim) Stats() RunStats { return s.report }

const (
	eps     = 1e-9
	timeEps = 1e-12
	// dtMin floors the event step. Buffer-drain events among many mutually
	// dependent flows can otherwise degenerate into nanosecond ping-pong:
	// flooring the step lets a fed flow over-send at most rate×dtMin bits
	// past its buffer (reconciled by clamping produced up to sent), a
	// bounded modelling error that is negligible against flow sizes.
	dtMin = 1e-7
)

// Run executes the simulation to completion and returns run statistics.
// It panics if called twice or if the flow graph deadlocks (which indicates
// a builder bug, e.g. a dependency cycle).
func (s *Sim) Run() RunStats {
	if s.ran {
		panic("simnet: Run called twice")
	}
	s.ran = true

	active := make([]FlowID, 0, len(s.flows))
	pending := make([]FlowID, 0, len(s.flows))
	for i := range s.flows {
		pending = append(pending, FlowID(i))
	}

	// One backing array for every flow's resource-position index, so the
	// hot path performs no per-event (or even per-flow) allocation.
	totalRes := 0
	for i := range s.flows {
		totalRes += len(s.flows[i].spec.Resources)
	}
	resPosBacking := make([]int32, totalRes)
	for i := range s.flows {
		f := &s.flows[i]
		n := len(f.spec.Resources)
		f.resPos, resPosBacking = resPosBacking[:n:n], resPosBacking[n:]
	}

	activate := func(id FlowID) {
		f := &s.flows[id]
		// Flows injected mid-run (from an At callback) missed the backing
		// pre-allocation above; give them their own index slice lazily.
		if len(f.resPos) < len(f.spec.Resources) {
			f.resPos = make([]int32, len(f.spec.Resources))
		}
		f.state = stateActive
		f.start = s.now
		f.produced = f.spec.StaticBits
		// Warm-started cap loop: a new flow enters uncapped and the first
		// recomputation of its component tightens the cap if needed.
		f.cap = math.Inf(1)
		f.capLimited = false
		f.estRate = 0
		if s.StoreAndForward && len(f.spec.Inputs) > 0 {
			// All inputs have completed; the whole payload is buffered.
			f.produced = f.spec.Bits
		}
		active = append(active, id)
		for j, r := range f.spec.Resources {
			res := &s.resources[r]
			f.resPos[j] = int32(len(res.active))
			res.active = append(res.active, id)
			res.slots = append(res.slots, int32(j))
		}
		s.markFlowDirty(id)
	}

	// startable reports whether a pending flow may activate now. A
	// truncated pending flow is always startable: it activates at zero
	// size and retires immediately, regardless of its original gating.
	startable := func(id FlowID) bool {
		f := &s.flows[id]
		if f.truncated {
			return true
		}
		if f.spec.Start > s.now+timeEps {
			return false
		}
		if s.StoreAndForward && len(f.spec.Inputs) > 0 {
			return f.inputsDone == len(f.spec.Inputs)
		}
		return true
	}

	// retirable reports whether an active flow has delivered everything it
	// ever will: all bits sent and every input complete — or truncation,
	// which waives the inputs (they will never deliver the missing bits).
	retirable := func(id FlowID) bool {
		f := &s.flows[id]
		return f.spec.Bits-f.sent <= math.Max(eps, f.spec.Bits*1e-12) &&
			(f.producedAll() || f.truncated)
	}

	finish := func(id FlowID) {
		f := &s.flows[id]
		f.state = stateDone
		f.end = s.now
		f.sent = f.spec.Bits
		f.rate = 0
		f.estRate = 0
		for j, r := range f.spec.Resources {
			// O(1) swap-remove via the two-way position index.
			res := &s.resources[r]
			p := f.resPos[j]
			last := int32(len(res.active) - 1)
			moved, movedSlot := res.active[last], res.slots[last]
			res.active[p], res.slots[p] = moved, movedSlot
			res.active = res.active[:last]
			res.slots = res.slots[:last]
			if moved != id {
				s.flows[moved].resPos[movedSlot] = p
			}
			// Everything still crossing the resource inherits freed capacity.
			s.markResDirty(r)
		}
		for _, c := range s.consumers[id] {
			cf := &s.flows[c]
			cf.inputsDone++
			if cf.state == stateActive {
				s.markFlowDirty(c)
			}
		}
	}

	guard := 0
	for {
		// Fire due timers. Callbacks may add flows (queued as pending
		// below) and truncate existing ones (swept by the retire pass);
		// both are picked up before this event's allocation.
		for len(s.timers) > 0 && s.timers[0].at <= s.now+timeEps {
			tm := s.timers[0]
			s.timers = s.timers[1:]
			known := len(s.flows)
			tm.fn()
			for id := known; id < len(s.flows); id++ {
				pending = append(pending, FlowID(id))
			}
		}

		// Move newly startable flows from pending to active.
		next := pending[:0]
		for _, id := range pending {
			if startable(id) {
				activate(id)
			} else {
				next = append(next, id)
			}
		}
		pending = next

		// Retire flows with nothing left to send — zero-size flows, and
		// flows a timer just truncated. A retiring input can complete a
		// truncated consumer in the same sweep, so sweep to a fixpoint.
		var compact []FlowID
		for {
			finished := false
			compact = active[:0]
			for _, id := range active {
				if retirable(id) {
					finish(id)
					s.report.Events++
					finished = true
				} else {
					compact = append(compact, id)
				}
			}
			active = compact
			if !finished {
				break
			}
		}

		if len(active) == 0 {
			if len(pending) == 0 && len(s.timers) == 0 {
				break
			}
			// Jump to the earliest future start or timer. Pending flows
			// whose start has already passed are gated on something else
			// (store-and-forward inputs): they cannot unblock while no
			// flow is active, but a timer still can inject new work.
			t := math.Inf(1)
			for _, id := range pending {
				if st := s.flows[id].spec.Start; st > s.now+timeEps && st < t {
					t = st
				}
			}
			if len(s.timers) > 0 && s.timers[0].at < t {
				t = s.timers[0].at
			}
			if math.IsInf(t, 1) {
				panic("simnet: deadlock — pending flows can never start")
			}
			if t > s.now {
				s.now = t
			}
			continue
		}

		s.allocate(active)

		// Next event: a completion, a buffer drain, or a pending start.
		dt := math.Inf(1)
		for _, id := range active {
			f := &s.flows[id]
			if f.rate > eps {
				if rem := f.spec.Bits - f.sent; rem > 0 {
					if d := rem / f.rate; d < dt {
						dt = d
					}
				}
			}
			// Buffer drain: sending faster than producing. Buffers at or
			// below bufEps are already treated as empty by the allocator,
			// so only schedule a drain event down to that level — otherwise
			// floating-point residue generates endless micro-events.
			if len(f.spec.Inputs) > 0 && !f.producedAll() {
				prod := s.productionRate(f)
				if f.rate > prod+eps {
					if buf := f.produced - f.sent - bufEps; buf > 0 {
						if d := buf / (f.rate - prod); d < dt {
							dt = d
						}
					}
				}
			}
		}
		for _, id := range pending {
			if st := s.flows[id].spec.Start; st > s.now {
				if d := st - s.now; d < dt {
					dt = d
				}
			}
		}
		// A timer is an event boundary too: never advance past one.
		if len(s.timers) > 0 {
			if d := s.timers[0].at - s.now; d < dt {
				dt = d
			}
		}
		if dt < dtMin {
			dt = dtMin
		}
		if math.IsInf(dt, 1) {
			panic("simnet: stalled (no flow can make progress) — " + s.stuckReport(active, pending, dt))
		}
		if dt < timeEps {
			dt = timeEps
		}

		// Advance fluid state by dt. Production is updated after all sends
		// using pre-step rates; both evolve linearly so this is exact.
		for _, id := range active {
			f := &s.flows[id]
			if f.rate <= 0 {
				continue
			}
			d := f.rate * dt
			f.sent += d
			if f.sent > f.spec.Bits {
				f.sent = f.spec.Bits
			}
			for _, r := range f.spec.Resources {
				res := &s.resources[r]
				if res.kind == KindLink {
					res.bits += d
				}
			}
		}
		for _, id := range active {
			f := &s.flows[id]
			if len(f.spec.Inputs) == 0 {
				continue
			}
			f.produced = f.spec.StaticBits
			for _, in := range f.spec.Inputs {
				f.produced += f.ratio * s.flows[in].sent
			}
			if f.produced > f.spec.Bits {
				f.produced = f.spec.Bits
			}
			if f.produced < f.sent {
				f.produced = f.sent
			}
			// A buffer crossing bufEps flips the flow between backlog- and
			// production-limited: its coupling component must re-allocate.
			if limited := !f.producedAll() && f.produced-f.sent <= bufEps; limited != f.capLimited {
				s.markFlowDirty(id)
			}
		}
		s.now += dt
		s.report.Events++

		// Retire completed flows. A fed flow only completes once its inputs
		// are done, and an input may finish in the same sweep, so sweep to a
		// fixpoint.
		for {
			finished := false
			compact = active[:0]
			for _, id := range active {
				if retirable(id) {
					finish(id)
					finished = true
				} else {
					compact = append(compact, id)
				}
			}
			active = compact
			if !finished {
				break
			}
		}

		guard++
		// Recomputed each event: timers may have grown the flow population.
		maxEvents := 100*len(s.flows) + 1000
		if guard > maxEvents {
			panic(fmt.Sprintf("simnet: event budget exceeded (%d events > 100×%d flows + 1000; likely a dependency livelock) — %s",
				guard, len(s.flows), s.stuckReport(active, pending, dt)))
		}
	}
	s.report.Duration = s.now
	return s.report
}

// producedAll reports whether all bits of the flow are (or will trivially
// be) available to send, i.e. every input has completed.
func (f *flow) producedAll() bool {
	return len(f.spec.Inputs) == 0 || f.inputsDone == len(f.spec.Inputs)
}

// productionRate returns the rate at which upstream inputs are currently
// making bits available to a fed flow.
func (s *Sim) productionRate(f *flow) float64 {
	rate := 0.0
	for _, in := range f.spec.Inputs {
		rate += s.flows[in].rate
	}
	return rate * f.ratio
}

// stuckReport renders the simulation state for the stall and event-budget
// panics: sim time, event and population counts, and the flow closest to
// completion (the "smallest stuck flow" — if the sim is deadlocked or
// livelocked, this is the flow whose non-progress explains it), plus a few
// further active flows for context.
func (s *Sim) stuckReport(active, pending []FlowID, dt float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%g dt=%g events=%d active=%d pending=%d",
		s.now, dt, s.report.Events, len(active), len(pending))

	describe := func(id FlowID) string {
		f := &s.flows[id]
		return fmt.Sprintf("[flow %d bits=%g sent=%.6g produced=%.6g rate=%g cap=%g prod_rate=%g inputs=%d/%d start=%g]",
			id, f.spec.Bits, f.sent, f.produced, f.rate, f.cap,
			s.productionRate(f), f.inputsDone, len(f.spec.Inputs), f.spec.Start)
	}

	// Smallest remaining payload among active flows: the next flow that
	// *should* finish. A zero rate plus a finite production rate here points
	// at the dependency edge that is wedged.
	smallest := FlowID(-1)
	rem := math.Inf(1)
	for _, id := range active {
		f := &s.flows[id]
		if r := f.spec.Bits - f.sent; r < rem {
			rem, smallest = r, id
		}
	}
	if smallest >= 0 {
		fmt.Fprintf(&sb, "\n  smallest stuck flow (%.6g bits left): %s", rem, describe(smallest))
	}
	shown := 0
	for _, id := range active {
		if id == smallest {
			continue
		}
		if shown >= 4 {
			fmt.Fprintf(&sb, "\n  … %d more active flows", len(active)-1-shown)
			break
		}
		fmt.Fprintf(&sb, "\n  active: %s", describe(id))
		shown++
	}
	if len(pending) > 0 {
		earliest := pending[0]
		for _, id := range pending {
			if s.flows[id].spec.Start < s.flows[earliest].spec.Start {
				earliest = id
			}
		}
		fmt.Fprintf(&sb, "\n  earliest pending: %s", describe(earliest))
	}
	return sb.String()
}
