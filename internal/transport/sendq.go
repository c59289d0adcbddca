package transport

import (
	"sync"

	"netagg/internal/wire"
)

const (
	// sendqCap bounds the frames admitted to a connection's send queue
	// before senders block (back-pressure toward the application).
	sendqCap = 256
	// batchMaxFrames caps the frames coalesced into one vectored write.
	// The flush policy is adaptive below the cap: an empty queue flushes
	// a lone frame immediately, a backlog is drained in cap-sized writes.
	batchMaxFrames = 64
	// batchMaxBytes caps the payload bytes coalesced into one vectored
	// write, so a run of large frames does not pin the flusher (and every
	// queued sender behind it) in a single enormous writev; a single
	// frame larger than the cap still goes out alone.
	batchMaxBytes = 1 << 20
)

// sendReq is one frame staged in a send queue. m is a value copy of the
// sender's Msg, taken at admission so the sender may reuse its Msg
// struct the moment the send returns; m.Buf carries the queue's own
// payload reference (retained at admission, released by complete or by
// Conn.failWaiters).
// done, when non-nil, is where a synchronous sender waits for the
// outcome of its frame's flush.
type sendReq struct {
	m    wire.Msg
	done chan error
	// sync marks a frame whose sender is waiting synchronously (the
	// group's waiter rides the last frame; earlier frames carry sync
	// alone). On a failed attempt sync frames are dropped with the error
	// reported, where fire-and-forget frames persist for the retry.
	sync bool
}

// sendq is the write path Conn and ServerConn share: a bounded
// admission queue with a doorbell on the sender side, and on the flusher
// side the claimed frames, the batch-bounded vectored writes that account
// for themselves in both the endpoint counters and the obs series
// (flush), and the one completion that ends a frame, written or not
// (complete). What a failed write means stays with the owner: Conn
// re-dials and keeps its fire-and-forget frames, ServerConn gives up.
type sendq struct {
	stats *counters // the owning endpoint's counters
	// run is the owner's flusher loop, started on the first admission
	// under wg so the owner's Close drains it.
	run func()
	wg  *sync.WaitGroup

	// Sender-side state. mu guards only the queue and the flags — never
	// a network operation, so one slow peer's write cannot stall the
	// senders sharing the connection.
	mu      sync.Mutex
	notFull *sync.Cond
	queue   []sendReq
	started bool  // flusher goroutine launched
	err     error // latched: admission is closed and refuses with it

	wake chan struct{} // flusher doorbell, 1-buffered

	// Flusher-owned state: touched only by the flusher goroutine.
	pending []sendReq   // frames taken off the queue, not yet written
	batch   []*wire.Msg // reused per-writev staging
}

func (q *sendq) init(stats *counters, wg *sync.WaitGroup, run func()) {
	q.stats, q.wg, q.run = stats, wg, run
	q.notFull = sync.NewCond(&q.mu)
	q.wake = make(chan struct{}, 1)
}

// admit queues msgs as one group, blocking while the bounded queue is
// full, and rings the flusher. A non-nil done marks the group
// synchronous: the flusher reports its outcome there. Once the queue is
// closed admit refuses with the latched error. A frame the encoder would
// refuse is refused here, before any of its group is queued: past this
// point a frame that cannot be written looks like a connection that
// cannot be written to, and the flusher would re-dial for it for ever.
func (q *sendq) admit(msgs []*wire.Msg, done chan error) error {
	for _, m := range msgs {
		if err := wire.CheckFrame(m); err != nil {
			return err
		}
	}
	q.mu.Lock()
	if !q.started && q.err == nil {
		q.started = true
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			q.run()
		}()
	}
	// Wait until the whole group fits. An empty queue always admits, so
	// a group larger than the bound cannot deadlock — it just has the
	// queue to itself.
	for len(q.queue) > 0 && len(q.queue)+len(msgs) > sendqCap && q.err == nil {
		obsQueueWaits.Inc()
		q.notFull.Wait()
	}
	if err := q.err; err != nil {
		q.mu.Unlock()
		return err
	}
	for i, m := range msgs {
		cp := *m
		cp.Buf = m.Buf.Retain() // the queue's reference, released by the flusher
		var d chan error
		if i == len(msgs)-1 {
			d = done // the group's waiter rides its last frame
		}
		q.queue = append(q.queue, sendReq{m: cp, done: d, sync: done != nil})
	}
	q.mu.Unlock()
	q.doorbell()
	return nil
}

// doorbell nudges the flusher; a full buffer means a wake-up is already
// pending.
func (q *sendq) doorbell() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// close latches err (the first one wins), wakes blocked senders so they
// observe it, and reports whether this call closed the queue.
func (q *sendq) close(err error) bool {
	q.mu.Lock()
	first := q.err == nil
	if first {
		q.err = err
	}
	q.notFull.Broadcast()
	q.mu.Unlock()
	return first
}

// moveQueued claims everything senders have queued, reopening admission
// space, and reports whether the queue has been closed.
func (q *sendq) moveQueued() bool {
	q.mu.Lock()
	if len(q.queue) > 0 {
		q.pending = append(q.pending, q.queue...)
		for i := range q.queue {
			q.queue[i] = sendReq{}
		}
		q.queue = q.queue[:0]
		q.notFull.Broadcast()
	}
	closed := q.err != nil
	q.mu.Unlock()
	return closed
}

// batchBound returns how many pending frames the next vectored write may
// coalesce under the frame-count and payload-byte caps (always at least
// one).
func (q *sendq) batchBound() int {
	n := len(q.pending)
	if n > batchMaxFrames {
		n = batchMaxFrames
	}
	bytes := 0
	for i := 0; i < n; i++ {
		bytes += len(q.pending[i].m.Payload)
		if bytes > batchMaxBytes && i > 0 {
			return i
		}
	}
	return n
}

// flush writes the pending frames in batch-bounded vectored writes,
// completing each batch once written, until none is left or a write
// fails. It reports how many frames it wrote; on a failed write the
// unwritten frames stay pending for the owner.
func (q *sendq) flush(vw *wire.VectorWriter) (int, error) {
	written := 0
	for len(q.pending) > 0 {
		n := q.batchBound()
		q.batch = q.batch[:0]
		for i := 0; i < n; i++ {
			q.batch = append(q.batch, &q.pending[i].m)
		}
		if err := q.writeVec(vw); err != nil {
			return written, err
		}
		q.complete(n, nil)
		written += n
	}
	return written, nil
}

// writeVec issues one vectored write for the frames staged in q.batch
// and records the per-batch counters.
func (q *sendq) writeVec(vw *wire.VectorWriter) error {
	written, err := vw.WriteBatch(q.batch)
	if err != nil {
		return err
	}
	k := int64(len(q.batch))
	var payload int64
	for _, m := range q.batch {
		payload += int64(len(m.Payload))
	}
	q.stats.writevCalls.Add(1)
	q.stats.framesOut.Add(k)
	q.stats.bytesOut.Add(payload)
	obsWritevCalls.Inc()
	obsBatchSize.Observe(k)
	obsBatchFrames.Add(k)
	obsBatchBytes.Add(written)
	obsBytesOut.Add(payload)
	return nil
}

// complete ends the first n pending frames: it releases the queue's
// payload reference and gives a synchronous group's waiter its verdict,
// err (nil once written). With a non-nil err an unwritten
// fire-and-forget frame is counted dropped.
func (q *sendq) complete(n int, err error) {
	for i := 0; i < n; i++ {
		req := &q.pending[i]
		req.m.Buf.Release()
		if req.done != nil {
			select {
			case req.done <- err:
			default: // cap-1 channel, single verdict per group: never full
			}
		}
		if err != nil && !req.sync {
			q.stats.dropped.Add(1)
			obsQueueDrops.Inc()
		}
	}
	m := copy(q.pending, q.pending[n:])
	for i := m; i < len(q.pending); i++ {
		q.pending[i] = sendReq{}
	}
	q.pending = q.pending[:m]
}
