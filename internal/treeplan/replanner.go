package treeplan

import (
	"context"
	"sync"
	"time"
)

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
	seen     bool
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
// access from its single loop goroutine.
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
	s.seen = true
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

// Forget drops a box's state (box removed from the deployment or
// declared dead — the failure path owns it now).
func (t *HotTracker) Forget(id uint64) { delete(t.boxes, id) }

// sweep deletes state for boxes not observed since the last sweep and
// resets the seen marks, so departed boxes do not leak tracker entries.
func (t *HotTracker) sweep() {
	for id, s := range t.boxes {
		if !s.seen {
			delete(t.boxes, id)
			continue
		}
		s.seen = false
	}
}

// ReplannerConfig wires a Replanner to the deployment it scores. Boxes,
// Telemetry, and Mark are required; Migrate may be nil for a
// mark-only replanner (new plans avoid congested boxes, in-flight
// requests stay put).
type ReplannerConfig struct {
	// Interval is the scoring tick period (default 500ms).
	Interval time.Duration
	// Policy is the hysteresis/cooldown policy (zero fields defaulted).
	Policy ReplanPolicy
	// Boxes lists the candidate boxes each tick — typically
	// cluster.Deployment.PlannerBoxes. Dead boxes are skipped and their
	// tracker state dropped (revival restarts the streak from scratch).
	Boxes func() []Box
	// Telemetry supplies the load signals to score boxes with.
	Telemetry Telemetry
	// Mark flips the deployment's congested flag for a box, which
	// planners see as Box.Slow on the next plan.
	Mark func(id uint64, congested bool)
	// Migrate moves pending requests off a newly congested box
	// (typically shim.Master.MigrateAway) and returns how many requests
	// it redirected.
	Migrate func(id uint64) int
}

// Replanner is the dynamic re-planning loop (ROADMAP item 1, DESIGN.md
// §16): every tick it scores the deployment's boxes against live
// telemetry through a HotTracker, marks boxes crossing the congestion
// hysteresis so new plans route around them, and — once per cooldown
// window — migrates in-flight requests off a box that turned hot
// mid-job. Epoch tagging in the shim/transport layers makes the
// migration exactly-once (see MigrateAway).
type Replanner struct {
	cfg     ReplannerConfig
	tracker *HotTracker

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// NewReplanner creates a stopped replanner; StartContext begins ticking.
func NewReplanner(cfg ReplannerConfig) *Replanner {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	return &Replanner{cfg: cfg, tracker: NewHotTracker(cfg.Policy)}
}

// StartContext launches the scoring loop; cancelling ctx is equivalent
// to Stop (Stop still waits for the loop to exit).
func (r *Replanner) StartContext(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done != nil {
		return // already started
	}
	ctx, r.cancel = context.WithCancel(ctx)
	r.done = make(chan struct{})
	go r.loop(ctx, r.done)
}

// Stop terminates the loop and waits for it to exit. Safe to call on a
// never-started replanner.
func (r *Replanner) Stop() {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// loop ticks until ctx is cancelled.
func (r *Replanner) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.Tick()
		}
	}
}

// Tick runs one scoring pass. It is exported so tests can drive the
// replanner deterministically without racing the wall-clock loop; the
// loop goroutine and external callers must not tick concurrently (the
// tracker is single-threaded by design — stop the loop first, or never
// start it).
func (r *Replanner) Tick() {
	obsReplanTicks.Inc()
	hotCount := 0
	for _, b := range r.cfg.Boxes() {
		if b.Dead {
			// The failure monitor owns dead boxes; a revived box
			// re-enters the state machine cold.
			r.tracker.Forget(b.ID)
			continue
		}
		var sig LoadSignal
		if r.cfg.Telemetry != nil {
			sig, _ = r.cfg.Telemetry.BoxSignal(b.ID)
		}
		hot, changed := r.tracker.Observe(b.ID, LoadUs(sig))
		if hot {
			hotCount++
		}
		if !changed {
			continue
		}
		r.cfg.Mark(b.ID, hot)
		if !hot {
			continue
		}
		if r.tracker.CoolingDown(b.ID) {
			obsReplanCooldownHolds.Inc()
			continue
		}
		if r.cfg.Migrate != nil {
			moved := r.cfg.Migrate(b.ID)
			obsReplanMigrations.Inc()
			obsReplanMigratedReqs.Add(int64(moved))
		}
		r.tracker.StartCooldown(b.ID)
	}
	r.tracker.sweep()
	obsReplanCongested.Set(int64(hotCount))
}
