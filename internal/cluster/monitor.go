package cluster

import (
	"context"
	"sync"
	"time"

	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// Monitor is the lightweight failure detection service (§3.1 "Handling
// failures"), extended into the control plane's only loop (DESIGN.md
// §16): it keeps a heartbeat connection to every agg box and marks a box
// dead in the deployment — removing it from future plans — after a run of
// missed heartbeats. Every probe outcome, echo or miss, is written into
// the deployment (liveness, RTT, the load the echo carried). A probe that
// declares its box dead hands the box to act with cause "failover"; every
// other sample of a live box steps that box's congestion hysteresis, and
// a box turning hot is marked congested — so new plans avoid it — and,
// outside its cooldown, handed to act with cause "migrate".
//
// Each box's prober goroutine owns that box's treeplan.Hysteresis, so a
// streak counts that box's samples and no lock guards congestion state.
// The heartbeat connections ride on transport.Conn, so probing a dead box
// costs one bounded dial per backoff window instead of one unbounded dial
// per interval. Probers keep watching a dead box and mark it alive again
// if it comes back, completing the restart-under-churn story (§3.3).
type Monitor struct {
	dep      *Deployment
	interval time.Duration
	policy   treeplan.ReplanPolicy
	act      func(id uint64, cause string) int

	mu     sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// deadAfter is how many consecutive missed heartbeats declare a box dead.
const deadAfter = 3

// NewMonitor creates a monitor probing every box each interval, declaring
// failure after deadAfter consecutive missed heartbeats and scoring
// congestion under policy (zero fields defaulted). act — the signature of
// shim.Master.Supersede — runs on the box's prober goroutine with cause
// "failover" or "migrate", and returns how many requests it moved.
func NewMonitor(dep *Deployment, interval time.Duration, policy treeplan.ReplanPolicy, act func(id uint64, cause string) int) *Monitor {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Monitor{
		dep:      dep,
		interval: interval,
		policy:   policy,
		act:      act,
	}
}

// StartContext launches one prober per currently deployed box. Cancelling
// ctx is equivalent to Stop (Stop still waits for the drain).
func (m *Monitor) StartContext(ctx context.Context) {
	m.mu.Lock()
	if m.ctx != nil {
		m.mu.Unlock()
		return // already started
	}
	m.ctx, m.cancel = context.WithCancel(ctx)
	probeCtx := m.ctx
	m.mu.Unlock()
	for _, b := range m.dep.Boxes() {
		m.wg.Add(1)
		go m.probe(probeCtx, b)
	}
}

// Stop terminates all probers and waits for them to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	cancel := m.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.wg.Wait()
}

// probe heartbeats one box until the monitor stops, tracking the box
// through dead and revived states.
func (m *Monitor) probe(ctx context.Context, b BoxInfo) {
	defer m.wg.Done()
	replies := make(chan uint64, 16)
	conn := transport.NewConn(ctx, b.Addr, transport.Options{
		DialTimeout: m.interval,
		// One dial per backoff window while the box is down, instead of
		// one per heartbeat interval: misses still accrue every tick (the
		// failure declaration does not slow down), only dialing does.
		Backoff:         transport.Backoff{Min: 2 * m.interval, Max: 16 * m.interval},
		MaxSendAttempts: 1,
		OnFrame: func(msg *wire.Msg) {
			m.handleEcho(b, replies, msg)
		},
	})
	defer conn.Close()
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	missed := 0
	dead, hot := false, false
	var congestion treeplan.Hysteresis
	var seq uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		seq++
		rtt, ok := m.heartbeat(ctx, conn, replies, seq)
		if ctx.Err() != nil {
			return // a probe the shutdown interrupted is not an outcome
		}
		if ok {
			missed = 0
			m.dep.MarkSeen(b.ID)
			m.dep.observeRTT(b.ID, rtt)
			if dead {
				dead = false
				m.dep.MarkAlive(b.ID)
				obsRevivals.Inc()
			}
		} else {
			missed++
			obsHBMisses.Inc()
			// A missed heartbeat is still an RTT observation: the true
			// round-trip exceeded the probe interval. Folding the interval in
			// as a penalized sample makes a degrading box's smoothed RTT — and
			// with it its load-aware planning score — rise while the box is
			// merely slow, instead of staying frozen at its last healthy value
			// until the box is declared dead.
			m.dep.observeRTT(b.ID, m.interval)
			if missed >= deadAfter && !dead {
				dead = true
				if last := m.dep.LastSeen(b.ID); !last.IsZero() {
					obsDetectMs.Observe(time.Since(last).Milliseconds())
				}
				m.dep.MarkDead(b.ID)
				obsFailures.Inc()
				// The failure path owns a dead box: a congested mark it
				// died with is cleared, and a revived box starts cold.
				if hot {
					m.dep.MarkCongested(b.ID, false)
					obsReplanCongested.Add(-1)
				}
				congestion, hot = treeplan.Hysteresis{}, false
				m.act(b.ID, "failover")
			}
		}
		if !dead {
			hot = m.score(b.ID, &congestion)
		}
	}
}

// score steps a live box's hysteresis against the sample its probe just
// wrote into the deployment and acts on a flip: the deployment's
// congested flag follows the state, and a flip to hot outside the
// cooldown migrates the box's pending requests. It returns the state.
func (m *Monitor) score(id uint64, h *treeplan.Hysteresis) bool {
	s, _ := m.dep.read(id)
	hot, changed, migrate := h.Step(m.policy, treeplan.LoadUs(s.load))
	obsReplanTicks.Inc()
	if !changed {
		return hot
	}
	m.dep.MarkCongested(id, hot)
	switch {
	case !hot:
		obsReplanCongested.Add(-1)
	case migrate:
		obsReplanCongested.Add(1)
		obsReplanMigrations.Inc()
		obsReplanMigratedReqs.Add(int64(m.act(id, "migrate")))
	default:
		obsReplanCongested.Add(1)
		obsReplanCooldownHolds.Inc()
	}
	return hot
}

// handleEcho processes one frame from a probed box. Heartbeats carry no
// epoch state, so no replay guard is needed: a replayed echo only
// re-observes a load sample and re-delivers a sequence number heartbeat()
// already treats as stale. TestMonitorHandlesEveryFrameItReceives holds
// the switch to the monitor's column of wire.Protocol().
func (m *Monitor) handleEcho(b BoxInfo, replies chan<- uint64, msg *wire.Msg) {
	wire.CheckReceive(wire.RoleMonitor, msg)
	switch msg.Type {
	case wire.THeartbeat:
		// The echo payload carries the box's load signal (queue depth,
		// flush latency); decode before Release invalidates it.
		if q, f, err := wire.DecodeLoad(msg.Payload); err == nil {
			m.dep.ObserveLoad(b.ID, q, f)
		}
		msg.Release()
		select {
		case replies <- msg.Seq:
		default: // prober is behind; dropping an echo just costs a miss
		}
	default:
		wire.Unexpected(wire.RoleMonitor, msg)
		msg.Release()
	}
}

// heartbeat sends one probe and waits up to the probe interval for an
// echo carrying this (or a newer) sequence number, returning the observed
// round-trip time on success (the deployment folds it into the box's RTT
// EWMA for load-aware planning).
func (m *Monitor) heartbeat(ctx context.Context, conn *transport.Conn, replies <-chan uint64, seq uint64) (time.Duration, bool) {
	t0 := time.Now()
	if err := conn.Send(&wire.Msg{Type: wire.THeartbeat, Seq: seq}); err != nil {
		return 0, false
	}
	timer := time.NewTimer(m.interval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return 0, false
		case got := <-replies:
			if got >= seq {
				rtt := time.Since(t0)
				obsHBRTT.Observe(rtt.Microseconds())
				return rtt, true
			}
			// A stale echo from an earlier probe: keep draining.
		case <-timer.C:
			// No echo in time: the box is wedged or the write landed in a
			// dead socket's buffer. Drop the connection so the next probe
			// re-dials instead of writing into the void.
			conn.Reset()
			return 0, false
		}
	}
}
