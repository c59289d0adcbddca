package treeplan

import "sync"

// ReplanPolicy is the hysteresis/cooldown policy of the dynamic-tree
// replanner (DESIGN.md §16). All thresholds are in the LoadUs scalar's
// microsecond-ish units; the zero value takes the documented defaults.
type ReplanPolicy struct {
	// HotLoadUs is the congestion entry threshold: a box whose load stays
	// at or above it for HotStreak consecutive ticks is declared
	// congested (default 20000 — e.g. 20 queued combine tasks, or 20ms
	// of flush latency plus heartbeat RTT).
	HotLoadUs int64
	// ColdLoadUs is the exit threshold: a congested box must stay at or
	// below it for HotStreak consecutive ticks before the mark clears
	// (default HotLoadUs/2). The band between the two thresholds is the
	// hysteresis region where state holds.
	ColdLoadUs int64
	// HotStreak is the consecutive-tick count required to enter or leave
	// the congested state (default 2). Raising it trades detection
	// latency for noise immunity.
	HotStreak int
	// CooldownTicks is the minimum number of ticks between migrations
	// off the same box (default 10). A box re-entering the congested
	// state inside its cooldown is still marked — planners avoid it —
	// but pending requests are not migrated again.
	CooldownTicks int
}

// withDefaults fills zero fields with the documented defaults.
func (p ReplanPolicy) withDefaults() ReplanPolicy {
	if p.HotLoadUs <= 0 {
		p.HotLoadUs = 20000
	}
	if p.ColdLoadUs <= 0 {
		p.ColdLoadUs = p.HotLoadUs / 2
	}
	if p.HotStreak <= 0 {
		p.HotStreak = 2
	}
	if p.CooldownTicks <= 0 {
		p.CooldownTicks = 10
	}
	return p
}

// hotState is one box's position in the hysteresis state machine.
type hotState struct {
	hot      bool
	streak   int // consecutive ticks beyond the active threshold
	cooldown int // ticks left before another migration may fire
}

// HotTracker is the tick-driven hysteresis state machine shared by the
// live Replanner and the simulator's dynamic-tree strategy. It is
// deliberately time-free: callers feed it one load observation per box
// per tick, and it answers whether the box is congested under the
// policy's enter/exit thresholds and streak requirement. Oscillation
// across the entry threshold alone never flips the state (the no-flap
// property the hysteresis test pins): entering requires HotStreak
// consecutive hot ticks, and leaving requires HotStreak consecutive
// ticks at or below the lower exit threshold.
//
// HotTracker is not safe for concurrent use; the Replanner serialises
// access under its mutex.
type HotTracker struct {
	policy ReplanPolicy
	boxes  map[uint64]*hotState
}

// NewHotTracker creates a tracker under p (zero fields defaulted).
func NewHotTracker(p ReplanPolicy) *HotTracker {
	return &HotTracker{policy: p.withDefaults(), boxes: make(map[uint64]*hotState)}
}

// Observe feeds one tick's load for one box and steps its state machine.
// It returns the box's congested state after the observation and whether
// this observation flipped it.
func (t *HotTracker) Observe(id uint64, loadUs int64) (hot, changed bool) {
	s := t.boxes[id]
	if s == nil {
		s = &hotState{}
		t.boxes[id] = s
	}
	if s.cooldown > 0 {
		s.cooldown--
	}
	if !s.hot {
		if loadUs >= t.policy.HotLoadUs {
			s.streak++
			if s.streak >= t.policy.HotStreak {
				s.hot, s.streak = true, 0
				return true, true
			}
		} else {
			s.streak = 0
		}
		return false, false
	}
	if loadUs <= t.policy.ColdLoadUs {
		s.streak++
		if s.streak >= t.policy.HotStreak {
			s.hot, s.streak = false, 0
			return false, true
		}
	} else {
		s.streak = 0
	}
	return true, false
}

// CoolingDown reports whether a box is inside its post-migration
// cooldown window, during which further migrations off it are held.
func (t *HotTracker) CoolingDown(id uint64) bool {
	s := t.boxes[id]
	return s != nil && s.cooldown > 0
}

// StartCooldown opens a box's cooldown window (called after a
// migration fires for it).
func (t *HotTracker) StartCooldown(id uint64) {
	if s := t.boxes[id]; s != nil {
		s.cooldown = t.policy.CooldownTicks
	}
}

// Forget drops a box's state (declared dead — the failure path owns it
// now) and reports whether the box was congested when it went.
func (t *HotTracker) Forget(id uint64) (wasHot bool) {
	s := t.boxes[id]
	delete(t.boxes, id)
	return s != nil && s.hot
}

// ReplannerConfig wires a Replanner to the deployment it scores.
// Telemetry and Mark are required; Migrate may be nil for a mark-only
// replanner (new plans avoid congested boxes, in-flight requests stay
// put).
type ReplannerConfig struct {
	// Policy is the hysteresis/cooldown policy (zero fields defaulted).
	Policy ReplanPolicy
	// Telemetry supplies the load signals to score boxes with.
	Telemetry Telemetry
	// Mark flips the deployment's congested flag for a box, which
	// planners see as Box.Slow on the next plan.
	Mark func(id uint64, congested bool)
	// Migrate moves pending requests off a newly congested box
	// (shim.Master.Supersede with cause "migrate") and returns how many
	// requests it redirected.
	Migrate func(id uint64) int
}

// Replanner is the dynamic re-planning scorer (DESIGN.md §16). It has no
// loop of its own: the failure monitor calls Observe after every
// heartbeat outcome, so each sample a box reports steps that box's
// HotTracker exactly once — a streak counts samples, never reads of the
// same sample. A box crossing the congestion hysteresis is marked so new
// plans route around it, and — once per cooldown window — in-flight
// requests are migrated off it. Epoch tagging in the shim/transport
// layers makes the migration exactly-once (see shim.Master.Supersede).
type Replanner struct {
	cfg ReplannerConfig

	mu      sync.Mutex // the monitor observes from one prober goroutine per box
	tracker *HotTracker
}

// NewReplanner creates a replanner; it acts only when Observe is called.
func NewReplanner(cfg ReplannerConfig) *Replanner {
	return &Replanner{cfg: cfg, tracker: NewHotTracker(cfg.Policy)}
}

// Observe scores one box against the sample Telemetry currently holds
// for it: the decision is taken under the mutex, Mark and Migrate run
// outside it. Only b.ID and b.Dead are read. A dead box belongs to the
// failure path: its state is dropped (a revived box re-enters cold) and
// a congested mark it died with is cleared.
func (r *Replanner) Observe(b Box) {
	var hot, changed, migrate bool
	r.mu.Lock()
	if b.Dead {
		changed = r.tracker.Forget(b.ID)
	} else {
		sig, _ := r.cfg.Telemetry.BoxSignal(b.ID)
		hot, changed = r.tracker.Observe(b.ID, LoadUs(sig))
		if migrate = changed && hot && !r.tracker.CoolingDown(b.ID); migrate {
			r.tracker.StartCooldown(b.ID)
		}
		obsReplanTicks.Inc()
	}
	r.mu.Unlock()
	if !changed {
		return
	}
	r.cfg.Mark(b.ID, hot)
	if !hot {
		obsReplanCongested.Add(-1)
		return
	}
	obsReplanCongested.Add(1)
	if !migrate {
		obsReplanCooldownHolds.Inc()
	} else if r.cfg.Migrate != nil {
		obsReplanMigrations.Inc()
		obsReplanMigratedReqs.Add(int64(r.cfg.Migrate(b.ID)))
	}
}
