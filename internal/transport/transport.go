// Package transport is the single connection layer of the NetAgg data
// plane. The paper's §3.2.1 design rests on persistent TCP connections —
// shims and boxes "maintain persistent TCP connections" carrying framed
// partial results — and before this package the repo hand-rolled that
// machinery five times (core.Box, shim.Master, shim.Worker,
// cluster.Monitor, and the search/testbed servers), each with its own
// goroutine lifecycle and none with dial timeouts or reconnect backoff.
//
// transport unifies both sides:
//
//   - Server: listener + accept loop + one reader goroutine per accepted
//     connection, all tracked in a WaitGroup and cancelled through a
//     context.Context, delivering frames to a handler callback.
//   - Conn: persistent outbound connection with bounded dials, jittered
//     exponential reconnect backoff, bounded write retry, a notice to its
//     owner when a connection that carried frames was lost (the owner
//     re-sends from its own copies, §3.1), and optional netem.NIC pacing
//     injected once instead of per call site.
//   - Pool: one Conn per destination address.
//
// Every endpoint keeps per-connection counters (frames/bytes in and out,
// dials, dial failures, reconnects) exposed as a Stats snapshot — the
// seam for observability work. Close is everywhere equivalent to
// cancelling the endpoint's context and draining its WaitGroup, so the
// §3.3 restart-under-churn story rests on one audited lifecycle.
package transport

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"netagg/internal/netem"
	"netagg/internal/wire"
)

const (
	// defaultDialTimeout bounds connection establishment, so one hung
	// dial cannot stall the connection's flusher indefinitely.
	defaultDialTimeout = 5 * time.Second
	// defaultSendAttempts is the original try plus one retry after a
	// reconnect.
	defaultSendAttempts = 2
)

// Options configure an outbound Conn (and every Conn a Pool creates).
// The zero value is usable: plain TCP, 5s dial timeout, one retry, the
// default backoff, no reader, no loss notice.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Backoff paces re-dials after a dial failure: sends inside the
	// backoff window return ErrBackingOff without touching the network,
	// so a dead peer costs one dial per window, not one per send.
	Backoff Backoff
	// MaxSendAttempts bounds how many times one Send is tried across
	// reconnects before the error is surfaced (default 2).
	MaxSendAttempts int
	// NIC, when set, paces every connection through the host's emulated
	// access link. Injected here once instead of wrapped at each dial
	// call site.
	NIC *netem.NIC
	// Dial overrides connection establishment (tests, alternative
	// transports). The NIC wrap still applies to its result. ctx carries
	// the dial timeout.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// OnFrame, when set, starts one reader goroutine per established
	// connection and delivers every inbound frame to it (heartbeat
	// replies, acks). Nil keeps the connection write-only. The handler
	// owns each frame's pooled payload reference (Msg.Buf) and should
	// Release it when done; forgetting one costs pool recycling, not
	// correctness.
	OnFrame func(m *wire.Msg)
	// OnLost, when set, is told the address of a lost connection that had
	// completed a write, once its replacement is up: the dead socket may
	// have taken frames unread, and only their sender can re-send them
	// (§3.1). It runs once per lost connection on a goroutine of its own,
	// so it may Send here, and Close waits for it. A lost connection is
	// re-dialled at once, not on the next Send.
	OnLost func(addr string)
	// Deprecated: read by nothing; a lost connection is recovered through
	// OnLost. Its only setters are benchmark/layers.go:188,324.
	ReplayWindow int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.MaxSendAttempts <= 0 {
		o.MaxSendAttempts = defaultSendAttempts
	}
	o.Backoff = o.Backoff.withDefaults()
	return o
}

// Stats is a point-in-time snapshot of an endpoint's counters. Conn and
// Server fill the fields that apply to them.
type Stats struct {
	// FramesIn / BytesIn count inbound frames and their payload bytes.
	FramesIn, BytesIn int64
	// FramesOut / BytesOut count outbound frames and their payload bytes
	// (re-sent frames are counted again — they cross the wire again).
	FramesOut, BytesOut int64
	// Dials counts successful connection establishments.
	Dials int64
	// DialFailures counts failed connection attempts.
	DialFailures int64
	// Reconnects counts successful dials that replaced a previously
	// established connection.
	Reconnects int64
	// BackoffSkips counts sends refused inside a backoff window without
	// a dial being attempted.
	BackoffSkips int64
	// Accepted counts inbound connections accepted (Server only).
	Accepted int64
	// WritevCalls counts vectored writes issued by the endpoint's
	// flusher; FramesOut / WritevCalls is the mean coalesced batch size.
	WritevCalls int64
	// Dropped counts queued fire-and-forget frames released undelivered
	// at Close or teardown: a Conn's sends and a Server's replies alike.
	Dropped int64
}

// counters is the lock-free mutable backing of Stats.
type counters struct {
	framesIn, bytesIn   atomic.Int64
	framesOut, bytesOut atomic.Int64
	dials, dialFailures atomic.Int64
	reconnects          atomic.Int64
	backoffSkips        atomic.Int64
	accepted            atomic.Int64
	writevCalls         atomic.Int64
	dropped             atomic.Int64
}

// readFrames is both ends' read loop: it reads frames off nc, counts
// each in stats and the process-wide obs series, and hands it to
// deliver, which owns its pooled payload reference, until a read fails.
func readFrames(nc net.Conn, stats *counters, deliver func(m *wire.Msg)) {
	r := wire.NewReader(nc)
	for {
		m, err := r.Read()
		if err != nil {
			return
		}
		n := int64(len(m.Payload))
		stats.framesIn.Add(1)
		stats.bytesIn.Add(n)
		obsFramesIn.Inc()
		obsBytesIn.Add(n)
		deliver(m)
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		FramesIn:     c.framesIn.Load(),
		BytesIn:      c.bytesIn.Load(),
		FramesOut:    c.framesOut.Load(),
		BytesOut:     c.bytesOut.Load(),
		Dials:        c.dials.Load(),
		DialFailures: c.dialFailures.Load(),
		Reconnects:   c.reconnects.Load(),
		BackoffSkips: c.backoffSkips.Load(),
		Accepted:     c.accepted.Load(),
		WritevCalls:  c.writevCalls.Load(),
		Dropped:      c.dropped.Load(),
	}
}
