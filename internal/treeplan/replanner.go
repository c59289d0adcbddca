package treeplan

// ReplanPolicy is the hysteresis/cooldown policy of dynamic-tree
// congestion scoring (DESIGN.md §16). All thresholds are in the LoadUs
// scalar's microsecond-ish units; the zero value takes the documented
// defaults.
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

// Hysteresis is one box's congestion state machine, shared by the live
// failure monitor (one per prober, so per box) and the simulator's
// dynamic-tree strategy (one per agg box). Its zero value is a cold box.
// It is deliberately time-free: the owner feeds it one load sample per
// tick, and a streak therefore counts samples. Oscillation across the
// entry threshold alone never flips the state (the no-flap property the
// hysteresis test pins): entering requires HotStreak consecutive hot
// samples, and leaving requires HotStreak consecutive samples at or below
// the lower exit threshold. It is not safe for concurrent use; its owner
// is the only goroutine that steps it.
type Hysteresis struct {
	hot      bool
	streak   int // consecutive samples beyond the active threshold
	cooldown int // samples left before another migration may fire
}

// Step feeds one sample's load under p (zero fields defaulted). It
// returns the box's congested state after the sample, whether this sample
// flipped it, and whether the flip should migrate the box's pending
// requests: a flip to hot outside the cooldown window, which it then
// opens. A flip to hot inside the window only marks the box.
func (h *Hysteresis) Step(p ReplanPolicy, loadUs int64) (hot, changed, migrate bool) {
	p = p.withDefaults()
	if h.cooldown > 0 {
		h.cooldown--
	}
	streaking := loadUs >= p.HotLoadUs
	if h.hot {
		streaking = loadUs <= p.ColdLoadUs
	}
	if !streaking {
		h.streak = 0
		return h.hot, false, false
	}
	if h.streak++; h.streak < p.HotStreak {
		return h.hot, false, false
	}
	h.hot, h.streak = !h.hot, 0
	if migrate = h.hot && h.cooldown == 0; migrate {
		h.cooldown = p.CooldownTicks
	}
	return h.hot, true, migrate
}
