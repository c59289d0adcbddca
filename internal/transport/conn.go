package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netagg/internal/netem"
	"netagg/internal/wire"
)

// ErrBackingOff reports a send refused because the last dial failed and
// the backoff window has not elapsed; no network activity happened.
var ErrBackingOff = errors.New("transport: backing off after failed dial")

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// connHandle wraps the established net.Conn so Close and Reset can
// reach the live socket (to unblock an in-flight vectored write) without
// sharing the flusher's connection state.
type connHandle struct {
	nc net.Conn
}

// Conn is a persistent outbound frame connection — the client side of
// the data plane. Senders enqueue frames into a bounded send queue; a
// dedicated flusher goroutine drains the queue and coalesces everything
// available into a single vectored write (headers in one scratch buffer,
// pooled payloads as their own iovec elements — no copy between the
// buffer pool and the socket). The flush policy is adaptive: a lone
// frame on an idle connection flushes immediately, concurrent senders
// are amortised into batched writev calls bounded by batchMaxFrames and
// batchMaxBytes. The queue, the bound, the write loop and the completion
// of a frame are the sendq core shared with ServerConn.
//
// The flusher also owns the connection lifecycle: it dials lazily with a
// bounded timeout, paces re-dials to a dead peer with jittered
// exponential backoff, and tells the owner (Options.OnLost) when a
// connection that had written was replaced. While a healthy connection is
// established, Send blocks only on queue admission; while disconnected,
// Send degrades to synchronous so dial errors and backoff refusals surface
// to the caller exactly as they did before the queue existed. Cancelling
// the constructor's context closes the connection, and so does Close,
// which also aborts a dial in flight.
type Conn struct {
	addr       string
	opts       Options
	ctx        context.Context
	stop       func() bool        // detaches the context→Close hook
	dialCtx    context.Context    // dials run under it: a child of ctx
	cancelDial context.CancelFunc // Close's abort of a dial in flight

	stats counters
	q     sendq // send queue + batch writer; closed with ErrClosed

	connected atomic.Bool                // an established connection is believed healthy
	live      atomic.Pointer[connHandle] // the established socket, for Close/Reset teardown
	dead      atomic.Pointer[connHandle] // reader's death notice for one specific connection

	// Flusher-owned connection state: accessed only from the flusher
	// goroutine, so none of it needs a lock.
	conn       net.Conn
	vw         *wire.VectorWriter
	wrote      bool      // the current connection has completed a write
	lost       bool      // a connection that wrote was dropped; OnLost is owed
	dialFails  int       // consecutive dials that failed, or led to no completed write
	nextDial   time.Time // start of the next allowed dial (backoff)
	writeFails int       // consecutive vectored-write failures

	wg sync.WaitGroup // flusher, reader and OnLost goroutines
}

// NewConn returns a connection to addr. Nothing is dialled until the
// first Send. Cancelling ctx is equivalent to Close. If opts.OnFrame is
// set it must not block indefinitely, or Close will hang draining the
// reader goroutine.
func NewConn(ctx context.Context, addr string, opts Options) *Conn {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Conn{
		addr: addr,
		opts: opts.withDefaults(),
		ctx:  ctx,
	}
	c.dialCtx, c.cancelDial = context.WithCancel(ctx)
	c.q.init(&c.stats, &c.wg, c.flusher)
	c.stop = context.AfterFunc(ctx, c.Close)
	return c
}

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats.snapshot() }

// Send queues one frame for the flusher. With a healthy connection
// established it blocks only on send-queue admission (back-pressure) and
// returns before the frame reaches the wire; a frame lost with a dead
// connection is re-sent by the owner that OnLost tells (§3.1).
// While disconnected it waits for the flusher's verdict so dial errors
// and ErrBackingOff surface synchronously. A frame over the wire limits
// (wire.CheckFrame) is refused with that error, connected or not, before
// anything is queued or dialled.
func (c *Conn) Send(m *wire.Msg) error {
	one := [1]*wire.Msg{m}
	return c.enqueue(one[:])
}

// SendAll queues several frames as one group: they are admitted
// atomically, so the flusher coalesces them into the minimum number of
// vectored writes (one, when the group fits the batch bounds).
func (c *Conn) SendAll(msgs []*wire.Msg) error {
	return c.enqueue(msgs)
}

// enqueue admits msgs to the send queue and, when the connection is not
// yet established, waits for the flusher to report the group's outcome.
func (c *Conn) enqueue(msgs []*wire.Msg) error {
	if len(msgs) == 0 {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	// While disconnected the send is synchronous: the group's last frame
	// carries the channel the flusher reports the outcome on.
	var done chan error
	if !c.connected.Load() {
		done = make(chan error, 1)
	}
	if err := c.q.admit(msgs, done); err != nil || done == nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-c.ctx.Done():
		// The flusher's verdict (if any) lands in the buffered channel and
		// is dropped with it; the frames themselves are completed by the
		// flusher's shutdown path.
		return c.ctx.Err()
	}
}

// flusher is the connection's single writer goroutine: it drains the
// send queue, establishes the connection as needed, and turns every
// drained run of frames into coalesced vectored writes.
func (c *Conn) flusher() {
	for {
		closed := c.q.moveQueued()
		// A death notice names one specific connection; honour it only if
		// that connection is still current, so a stale reader cannot kill
		// its successor.
		if d := c.dead.Swap(nil); d != nil && c.conn != nil && d.nc == c.conn {
			c.dropConn()
		}
		if closed {
			c.shutdown()
			return
		}
		if len(c.q.pending) == 0 {
			if c.lost {
				// Eager §3.1 recovery: the dead connection may have taken
				// frames the peer never read, and no future send is
				// guaranteed to arrive and reconnect lazily. Reconnect now
				// (ensure tells the owner), pacing retries with the dial
				// backoff.
				if err := c.ensure(); err != nil {
					if c.ctx.Err() != nil {
						c.q.close(ErrClosed)
						continue
					}
					c.waitRetry()
				}
				continue
			}
			select {
			case <-c.q.wake:
			case <-c.ctx.Done():
				// Mark closed ourselves: the context's AfterFunc runs
				// Close concurrently, but observing the cancellation here
				// must terminate the loop even if that hook is delayed.
				c.q.close(ErrClosed)
			}
			continue
		}
		if err := c.ensure(); err != nil {
			c.failWaiters(err)
			if len(c.q.pending) > 0 {
				// Fire-and-forget frames persist across the outage; wait
				// for the backoff window (or new work) and try again.
				c.waitRetry()
			}
			continue
		}
		c.writePending()
	}
}

// waitRetry sleeps until the next allowed dial, new work, or shutdown.
func (c *Conn) waitRetry() {
	d := time.Until(c.nextDial)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.q.wake:
		c.q.doorbell() // preserve the nudge for the main loop's next block
	case <-t.C:
	case <-c.ctx.Done():
	}
}

// writePending writes the pending frames through the send queue. On a
// write error the connection is dropped and the unwritten frames are kept
// for the next connection; repeated failures surface the error to
// synchronous waiters.
func (c *Conn) writePending() {
	n, err := c.q.flush(c.vw)
	if n > 0 {
		c.wrote, c.dialFails, c.writeFails = true, 0, 0
	}
	if err != nil {
		c.dropConn()
		c.writeFails++
		if c.writeFails >= c.opts.MaxSendAttempts {
			c.failWaiters(err)
			c.writeFails = 0
		}
	}
}

// failWaiters reports err to every synchronous sender in pending and
// releases the frames of their groups; fire-and-forget frames stay
// pending for the next attempt, preserving their order.
func (c *Conn) failWaiters(err error) {
	pending := c.q.pending
	kept := pending[:0]
	for i := range pending {
		req := pending[i]
		if req.sync {
			req.m.Buf.Release()
			if req.done != nil {
				select {
				case req.done <- err:
				default: // cap-1 channel, single verdict per group: never full
				}
			}
		} else {
			kept = append(kept, req)
		}
	}
	for i := len(kept); i < len(pending); i++ {
		pending[i] = sendReq{}
	}
	c.q.pending = kept
}

// ensure establishes the connection if needed, honouring the backoff
// window, and starts the owner's OnLost once a lost connection is
// replaced.
func (c *Conn) ensure() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if c.conn != nil {
		return nil
	}
	if !c.nextDial.IsZero() && time.Now().Before(c.nextDial) {
		c.stats.backoffSkips.Add(1)
		obsBackoffSkips.Inc()
		return fmt.Errorf("%w (next dial in %v)", ErrBackingOff,
			time.Until(c.nextDial).Round(time.Millisecond))
	}
	dial := c.opts.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	dctx, cancel := context.WithTimeout(c.dialCtx, c.opts.DialTimeout)
	nc, err := dial(dctx, c.addr)
	cancel()
	if err != nil {
		c.dialFails++
		c.stats.dialFailures.Add(1)
		obsDialFailures.Inc()
		c.nextDial = time.Now().Add(c.opts.Backoff.Delay(c.dialFails))
		return err
	}
	if c.opts.NIC != nil {
		nc = netem.Wrap(nc, c.opts.NIC)
	}
	c.conn = nc
	c.vw = wire.NewVectorWriter(nc)
	h := &connHandle{nc: nc}
	c.live.Store(h)
	c.wrote = false
	c.nextDial = time.Time{}
	obsDials.Inc()
	if c.stats.dials.Add(1) > 1 {
		c.stats.reconnects.Add(1)
		obsReconnects.Inc()
	}
	// The reader runs even without OnFrame: a write-only flusher with an
	// empty queue would otherwise never notice a dead peer (the last batch
	// "succeeds" into the dead socket's buffer), and the §3.1 re-send would
	// wait forever for a failure that cannot surface.
	c.wg.Add(1)
	go c.readLoop(nc, h)
	c.connected.Store(true)
	if c.lost {
		// The owner re-sends through this connection, so it must not run
		// on the flusher, whose queue it may have to wait for.
		c.lost = false
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.opts.OnLost(c.addr)
		}()
	}
	return nil
}

// dropConn tears down the current connection so the next attempt
// re-dials. A connection that had written is lost: its replacement owes
// the owner an OnLost.
func (c *Conn) dropConn() {
	c.connected.Store(false)
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.vw = nil
	c.live.Store(nil)
	if c.wrote {
		c.lost = c.opts.OnLost != nil
	} else {
		// A connection that never completed a write was worth no more than
		// a failed dial, and its successor waits like one: a peer that
		// accepts and then fails every write would otherwise be re-dialled
		// as fast as the flusher loops (8,000 dials in 300 ms). One that
		// did write and then broke is re-dialled at once.
		c.dialFails++
		c.nextDial = time.Now().Add(c.opts.Backoff.Delay(c.dialFails))
	}
}

// shutdown is the flusher's exit path: every pending frame is completed
// with ErrClosed (waiters get it, fire-and-forget frames are counted
// dropped) and the socket is closed.
func (c *Conn) shutdown() {
	c.q.complete(len(c.q.pending), ErrClosed)
	c.dropConn()
}

// readLoop delivers inbound frames to OnFrame (discarding them when none
// is set — it still runs as the connection's death watcher) until the
// connection dies, then posts a death notice naming its connection so the
// flusher drops it and re-dials. Each frame's pooled payload reference
// transfers to OnFrame (see Options.OnFrame): the handler releases it, and
// a handler that forgets merely falls back to the GC.
func (c *Conn) readLoop(nc net.Conn, h *connHandle) {
	defer c.wg.Done()
	deliver := c.opts.OnFrame
	if deliver == nil {
		deliver = func(m *wire.Msg) { m.Buf.Release() }
	}
	readFrames(nc, &c.stats, deliver)
	// Ensure the writer side notices promptly even if it is the peer that
	// went away, then tell the flusher which connection died.
	nc.Close()
	if c.live.Load() == h {
		c.connected.Store(false)
	}
	c.dead.Store(h)
	c.q.doorbell()
}

// Reset drops the current connection (if any) so the next Send re-dials.
// The failure monitor uses it when a peer stops replying without the
// connection erroring. It closes the live socket, which also unblocks an
// in-flight write into it, and posts the death notice its reader would:
// the flusher drops the connection as it does any socket that dies, and
// the next Send cannot reach it first, while the reader is still waking.
func (c *Conn) Reset() {
	c.connected.Store(false)
	if h := c.live.Load(); h != nil {
		h.nc.Close()
		c.dead.Store(h)
		c.q.doorbell()
	}
}

// Close tears the connection down: it aborts a dial in flight, the
// flusher completes or drops every queued frame and exits, and reader and
// OnLost goroutines drain. It is idempotent and is also invoked by
// cancellation of the constructor's context; every call returns only once
// the teardown is done, whichever call (or the flusher, seeing the
// cancellation) started it.
func (c *Conn) Close() {
	if c.q.close(ErrClosed) {
		c.connected.Store(false)
		c.q.doorbell()
		if h := c.live.Load(); h != nil {
			h.nc.Close() // unblock an in-flight write so the flusher can exit
		}
	}
	if c.stop != nil {
		c.stop()
	}
	c.cancelDial()
	c.wg.Wait()
}
