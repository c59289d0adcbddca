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
// batchMaxBytes. The queue, the bound and the write are the sendq core
// shared with ServerConn.
//
// The flusher also owns the connection lifecycle: it dials lazily with a
// bounded timeout, paces re-dials to a dead peer with jittered
// exponential backoff, and optionally replays recent frames after a
// reconnect. While a healthy connection is established, Send blocks only
// on queue admission; while disconnected, Send degrades to synchronous
// so dial errors and backoff refusals surface to the caller exactly as
// they did before the queue existed. Cancelling the constructor's
// context closes the connection.
type Conn struct {
	addr string
	opts Options
	ctx  context.Context
	stop func() bool // detaches the context→Close hook

	stats counters
	q     sendq // send queue + batch writer; closed with ErrClosed

	connected atomic.Bool                // an established connection is believed healthy
	resetReq  atomic.Bool                // Reset asked the flusher to drop the connection
	live      atomic.Pointer[connHandle] // the established socket, for Close/Reset teardown
	dead      atomic.Pointer[connHandle] // reader's death notice for one specific connection

	// Flusher-owned connection state: accessed only from the flusher
	// goroutine, so none of it needs a lock.
	conn       net.Conn
	vw         *wire.VectorWriter
	everUp     bool       // a connection has been established before
	wrote      bool       // the current connection has completed a write
	needReplay bool       // the previous connection died with frames possibly unread
	replay     replayRing // last ReplayWindow frames written; owns one payload ref each
	dialFails  int        // consecutive dials that failed, or led to no completed write
	nextDial   time.Time  // start of the next allowed dial (backoff)
	writeFails int        // consecutive vectored-write failures

	wg sync.WaitGroup // flusher + reader goroutines
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
	c.q.init(&c.stats, &c.wg, c.flusher)
	c.stop = context.AfterFunc(ctx, c.Close)
	return c
}

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats.snapshot() }

// Send queues one frame for the flusher. With a healthy connection
// established it blocks only on send-queue admission (back-pressure) and
// returns before the frame reaches the wire; delivery failures are
// recovered through the replay window and the receiver's dedup (§3.1).
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
		if c.resetReq.Swap(false) {
			c.dropConn()
		}
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
			if c.needReplay && c.replay.n > 0 {
				// Eager §3.1 recovery: the window may hold frames the dead
				// peer never processed, and no future send is guaranteed to
				// arrive and trigger the rewrite lazily. Reconnect now
				// (ensure replays before reporting success), pacing retries
				// with the dial backoff.
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

// writePending drains the pending frames into batch-bounded vectored
// writes. On a write error the connection is dropped and pending frames
// are kept for the post-reconnect rewrite; repeated failures surface the
// error to synchronous waiters.
func (c *Conn) writePending() {
	for len(c.q.pending) > 0 {
		n := c.q.stagePending()
		if err := c.q.writeVec(c.vw); err != nil {
			c.dropConn()
			c.writeFails++
			if c.writeFails >= c.opts.MaxSendAttempts {
				c.failWaiters(err)
				c.writeFails = 0
			}
			return
		}
		c.writeFails = 0
		c.wrote, c.dialFails = true, 0
		c.finishBatch(n)
	}
}

// finishBatch completes the first n pending frames after a successful
// write: the queue's payload reference moves to the replay window (or is
// released), and synchronous waiters are woken with success.
func (c *Conn) finishBatch(n int) {
	for i := 0; i < n; i++ {
		req := &c.q.pending[i]
		if c.opts.ReplayWindow > 0 {
			c.retainReplay(req.m)
		} else {
			req.m.Buf.Release()
		}
		if req.done != nil {
			select {
			case req.done <- nil:
			default: // cap-1 channel, single verdict per group: never full
			}
		}
	}
	c.q.pop(n)
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

// replayRing is the replay window: the last len(slots) frames written,
// oldest first from head, each slot holding one payload reference. A
// frame written to a full window overwrites the oldest in place — nothing
// moves and, after the first frame, nothing is allocated.
type replayRing struct {
	slots []wire.Msg // ReplayWindow of them, made by the first retain
	head  int        // index of the oldest held frame
	n     int        // frames held
}

// at returns the i-th held frame, oldest first.
func (r *replayRing) at(i int) *wire.Msg {
	if i += r.head; i >= len(r.slots) {
		i -= len(r.slots)
	}
	return &r.slots[i]
}

// retainReplay moves the queue's payload reference on m into the replay
// window, in place of the oldest frame's once the window is full.
func (c *Conn) retainReplay(m wire.Msg) {
	r := &c.replay
	if r.slots == nil {
		r.slots = make([]wire.Msg, c.opts.ReplayWindow)
	}
	slot := r.at(r.n) // of a full window, the oldest frame's
	if r.n < len(r.slots) {
		r.n++
	} else {
		slot.Buf.Release()
		if r.head++; r.head == len(r.slots) {
			r.head = 0
		}
	}
	*slot = m //netagg:owns m — the window's reference, released on overwrite/Close
}

// releaseReplay empties the window, dropping its payload references.
func (c *Conn) releaseReplay() {
	r := &c.replay
	for i := 0; i < r.n; i++ {
		r.at(i).Buf.Release()
	}
	clear(r.slots)
	r.head, r.n = 0, 0
}

// ensure establishes the connection if needed, honouring the backoff
// window, and rewrites retained frames after a reconnect.
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
	dctx, cancel := context.WithTimeout(c.ctx, c.opts.DialTimeout)
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
	c.stats.dials.Add(1)
	obsDials.Inc()
	if c.everUp {
		c.stats.reconnects.Add(1)
		obsReconnects.Inc()
	}
	c.everUp = true
	// The reader runs even without OnFrame: a write-only flusher with an
	// empty queue would otherwise never notice a dead peer (the last batch
	// "succeeds" into the dead socket's buffer), and the §3.1 replay would
	// wait forever for a failure that cannot surface.
	c.wg.Add(1)
	go c.readLoop(nc, h)
	if c.needReplay && c.replay.n > 0 {
		c.stats.replayed.Add(int64(c.replay.n))
		obsReplayed.Add(int64(c.replay.n))
		if err := c.writeReplay(); err != nil {
			c.dropConn()
			return err
		}
		c.wrote, c.dialFails = true, 0
	}
	c.needReplay = false
	c.connected.Store(true)
	return nil
}

// writeReplay rewrites the replay window onto a fresh connection, in
// batch-bounded vectored writes. A write that "succeeded" into a dead
// peer's socket buffer is indistinguishable from a delivered one, so
// recovery must resend; receivers dedup (§3.1).
func (c *Conn) writeReplay() error {
	for off := 0; off < c.replay.n; {
		n := min(c.replay.n-off, batchMaxFrames)
		c.q.batch = c.q.batch[:0]
		for i := 0; i < n; i++ {
			c.q.batch = append(c.q.batch, c.replay.at(off+i))
		}
		if err := c.q.writeVec(c.vw); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// dropConn tears down the current connection so the next attempt
// re-dials. With a replay window configured, retained frames are marked
// for rewrite on the next connection.
func (c *Conn) dropConn() {
	c.connected.Store(false)
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.vw = nil
	c.live.Store(nil)
	if c.opts.ReplayWindow > 0 {
		c.needReplay = true
	}
	if !c.wrote {
		// A connection that never completed a write was worth no more than
		// a failed dial, and its successor waits like one: a peer that
		// accepts and then fails every write would otherwise be re-dialled
		// as fast as the flusher loops (8,000 dials in 300 ms). One that
		// did write and then broke is re-dialled at once.
		c.dialFails++
		c.nextDial = time.Now().Add(c.opts.Backoff.Delay(c.dialFails))
	}
}

// shutdown is the flusher's exit path: every queued and pending frame is
// completed (waiters get ErrClosed, fire-and-forget frames are counted
// dropped), all queue and replay references are released, and the socket
// is closed.
func (c *Conn) shutdown() {
	for i := range c.q.pending {
		req := c.q.pending[i]
		req.m.Buf.Release()
		if req.done != nil {
			select {
			case req.done <- ErrClosed:
			default: // cap-1 channel, single verdict per group: never full
			}
		}
		if !req.sync {
			c.stats.dropped.Add(1)
			obsQueueDrops.Inc()
		}
		c.q.pending[i] = sendReq{}
	}
	c.q.pending = nil
	c.releaseReplay()
	c.dropConn()
}

// readLoop delivers inbound frames to OnFrame (discarding them when none
// is set — it still runs as the connection's death watcher) until the
// connection dies, then posts a death notice naming its connection so the
// flusher drops it and the next send re-dials and replays. Each frame's
// pooled payload reference transfers to OnFrame (see Options.OnFrame):
// the handler releases it, and a handler that forgets merely falls back
// to the GC.
func (c *Conn) readLoop(nc net.Conn, h *connHandle) {
	defer c.wg.Done()
	r := wire.NewReader(nc)
	for {
		m, err := r.Read()
		if err != nil {
			// Ensure the writer side notices promptly even if it is the
			// peer that went away, then tell the flusher which connection
			// died.
			nc.Close()
			if c.live.Load() == h {
				c.connected.Store(false)
			}
			c.dead.Store(h)
			c.q.doorbell()
			return
		}
		c.stats.countIn(m)
		if c.opts.OnFrame != nil {
			c.opts.OnFrame(m)
		} else {
			m.Buf.Release()
		}
	}
}

// Reset drops the current connection (if any) so the next Send re-dials.
// The failure monitor uses it when a peer stops replying without the
// connection erroring.
func (c *Conn) Reset() {
	c.resetReq.Store(true)
	c.connected.Store(false)
	if h := c.live.Load(); h != nil {
		h.nc.Close() // unblock an in-flight write into the dead socket
	}
	c.q.doorbell()
}

// Close tears the connection down: the flusher completes or drops every
// queued frame, releases the replay window, and exits; reader goroutines
// drain. It is idempotent and is also invoked by cancellation of the
// constructor's context; every call returns only once the teardown is
// done, whichever call (or the flusher, seeing the cancellation) started
// it.
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
	c.wg.Wait()
}
