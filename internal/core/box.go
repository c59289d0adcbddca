package core

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/netem"
	"netagg/internal/obs"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// Config configures an agg box.
type Config struct {
	// ID identifies the box cluster-wide (used as the wire Source of its
	// forwarded results). Box IDs live above 1<<32 to stay disjoint from
	// worker indices.
	ID uint64
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// Workers is the scheduler thread pool size.
	Workers int
	// Registry supplies each application's aggregation function.
	Registry *agg.Registry
	// NIC optionally emulates the box's access link (10 Gbps in the paper).
	NIC *netem.NIC
	// SchedSeed seeds the WFQ random pick (0 = time-based).
	SchedSeed int64
}

const (
	// maxPending bounds the inputs a request's local tree holds before it
	// back-pressures its senders. An eighth of it, 256, is the most parts
	// one batch waits for: a mapred_kv job's 224–232 chunks and a
	// sort_concat job's 128 fit, so a job under the tree's byte threshold
	// is one merge.
	maxPending = 2048
	// idleTimeout is how long a request may see no traffic before the
	// janitor garbage-collects it.
	idleTimeout = 30 * time.Second
	// maxCrashes is how many requests an application's aggregation code
	// may fail with a panic before the box quarantines it: it refuses the
	// application's requests from then on, and keeps serving the others.
	maxCrashes = 3
)

// Box is a running agg box.
type Box struct {
	cfg     Config
	srv     *transport.Server
	sched   *Scheduler
	obsNode string // trace span node label ("box:<id>")

	done chan struct{} // closed by Close: stops the janitor

	mu       sync.Mutex
	requests map[reqKey]*boxRequest
	pool     *transport.Pool
	closed   bool
	// crashes counts each application's requests failed by a panic in
	// its aggregation code; at maxCrashes it is quarantined.
	crashes map[string]int

	stats BoxStats
	// requestsAtReply is stats.Requests as the last heartbeat reply saw
	// it (see decayIdleFlush).
	requestsAtReply int64
	// flushUs is the EWMA of recent request flush latencies (first
	// partial seen → result emitted) in microseconds, exported through
	// FlushLatencyUs as a load signal for planners.
	flushUs int64

	wg sync.WaitGroup
}

// BoxStats aggregates counters across the box's lifetime.
type BoxStats struct {
	// BytesIn counts partial-result payload bytes received.
	BytesIn int64
	// BytesOut counts forwarded payload bytes.
	BytesOut int64
	// Requests counts requests completed.
	Requests int64
	// Combines counts aggregation tasks executed.
	Combines int64
	// FanoutCopies counts per-next-hop copies made for one-to-many
	// distribution (the §5 extension).
	FanoutCopies int64
}

type reqKey struct {
	app string
	req uint64
}

// boxRequest is the per-request aggregation state.
type boxRequest struct {
	key      reqKey
	tree     *LocalTree
	route    []string // remaining hops; last entry is the master
	expected int      // direct sources; -1 until TExpect arrives
	ended    int      // sources whose TEnd has been taken
	// nextSeq is the next sequence number taken from each source: a
	// source's TData and TEnd are taken strictly in order. Anything else
	// is a duplicate of what was taken, or follows a gap a lost
	// connection left, and is dropped: the sender's re-send of the whole
	// stream fills the gap (§3.1), and a gap nobody fills stalls the
	// request until the straggler timer moves it, never a short count.
	nextSeq  map[uint64]uint64
	lastSeen time.Time
	closed   bool

	// firstSeen / frames / bytesIn feed the request's box-hop trace
	// span and the fan-in / flush-latency histograms (DESIGN.md §11).
	firstSeen time.Time
	frames    int
	bytesIn   int64
}

// Start launches a box.
func Start(cfg Config) (*Box, error) {
	if cfg.Registry == nil {
		return nil, errors.New("core: box requires an aggregator registry")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	b := &Box{
		cfg:     cfg,
		obsNode: fmt.Sprintf("box:%d", cfg.ID),
		done:    make(chan struct{}),
		sched: NewScheduler(SchedulerConfig{
			Workers:  cfg.Workers,
			Adaptive: true, // the paper's scheduler; Fig 25's fixed-WFQ baseline builds its own
			Seed:     cfg.SchedSeed,
		}),
		requests: make(map[reqKey]*boxRequest),
		crashes:  make(map[string]int),
		pool:     transport.NewPool(transport.Options{NIC: cfg.NIC}),
	}
	for _, app := range cfg.Registry.Apps() {
		b.sched.Register(app, 1)
	}
	// The box must be fully initialised before the listener goes live:
	// frames can arrive the moment Listen returns.
	srv, err := transport.Listen(nil, cfg.Addr, b.serveFrame, transport.ServerOptions{NIC: cfg.NIC})
	if err != nil {
		b.pool.Close()
		b.sched.Close()
		return nil, err
	}
	b.srv = srv
	b.wg.Add(1)
	go b.janitor()
	return b, nil
}

// Addr returns the box's listen address.
func (b *Box) Addr() string { return b.srv.Addr() }

// QueueDepth reports the scheduler's current pending task count — the
// box's primary load signal, which each heartbeat echo carries to the
// deployment (treeplan.LoadSignal.QueueDepth) and planners see, bucketed,
// as treeplan.Box.Load.
func (b *Box) QueueDepth() int { return b.sched.Pending() }

// FlushLatencyUs reports the EWMA of recent request flush latencies in
// microseconds (0 until the first request completes) — the box's
// service-time load signal for load-aware tree planning.
func (b *Box) FlushLatencyUs() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushUs
}

// Quarantined reports whether the box has disabled an application's
// aggregation function after repeated crashes.
func (b *Box) Quarantined(app string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashes[app] >= maxCrashes
}

// decayIdleFlush takes the flush-latency average to ⅞ of itself — the
// weight an old sample keeps when a request finishes — if the box holds no
// request and none has finished since the previous heartbeat reply: an
// idle box's load signal decays toward 0 instead of holding its last
// request's latency, which once left idle boxes above
// ReplanPolicy.HotLoadUs and got them migrated. A box with a request open
// is not idle, however long that request takes, so its signal stays.
func (b *Box) decayIdleFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.requests) == 0 && b.stats.Requests == b.requestsAtReply {
		b.flushUs = b.flushUs * 7 / 8
	}
	b.requestsAtReply = b.stats.Requests
}

// Stats returns a snapshot of the box counters.
func (b *Box) Stats() BoxStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close shuts the box down: stop the janitor, close the listener with
// its inbound connections and the outbound pool, then drain every
// goroutine.
func (b *Box) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	b.srv.Close()
	b.pool.Close()
	b.sched.Close()
	// All readers and the scheduler are drained: discard whatever
	// requests remain so their trees give buffered parts back, then wait
	// for the ones already finishing to let go of their results.
	b.mu.Lock()
	remaining := make([]*boxRequest, 0, len(b.requests))
	for _, req := range b.requests {
		remaining = append(remaining, req)
	}
	b.mu.Unlock()
	for _, req := range remaining {
		b.discard(req)
	}
	b.wg.Wait()
}

// discard tears down a request's tree. A request is counted in b.wg from
// the moment it enters the table until its tree's callback has returned;
// a tree discarded before it fired the callback never will, so the count
// is given back here.
func (b *Box) discard(req *boxRequest) {
	if req.tree.Discard() {
		b.wg.Done()
	}
}

// serveFrame handles one frame from an inbound persistent connection
// (shim or upstream box). It runs on the transport server's reader
// goroutine for that connection, so blocking here back-pressures that
// sender only. TestBoxHandlesEveryFrameItReceives holds the switch to the
// box's column of wire.Protocol().
func (b *Box) serveFrame(conn *transport.ServerConn, m *wire.Msg) {
	wire.CheckReceive(wire.RoleBox, m)
	switch m.Type {
	case wire.THeartbeat:
		// The echo goes back on the same connection carrying the box's
		// load signal, so every liveness probe doubles as a telemetry
		// sample for load-aware planning and the replanner; a reply
		// failure means the prober is gone, so drop the connection.
		b.decayIdleFlush()
		if err := conn.Reply(&wire.Msg{
			Type: wire.THeartbeat, Source: b.cfg.ID, Seq: m.Seq,
			Payload: wire.EncodeLoad(b.QueueDepth(), b.FlushLatencyUs()),
		}); err != nil {
			b.logf("box %d: heartbeat reply: %v", b.cfg.ID, err)
			_ = conn.Close()
		}
	case wire.THello, wire.TData, wire.TEnd, wire.TExpect:
		if err := b.handle(m); err != nil {
			b.logf("box %d: %s: %v", b.cfg.ID, m.Type, err)
		}
	case wire.TFanout:
		if err := b.handleFanout(m); err != nil {
			b.logf("box %d: fanout: %v", b.cfg.ID, err)
		}
	case wire.TCancel:
		b.handleCancel(m)
	default:
		wire.Unexpected(wire.RoleBox, m)
	}
	// Every path above has consumed the payload (TData hands the buffer
	// to the tree via TakeBuf, leaving this a no-op).
	m.Release()
}

// handle processes one aggregation frame. It may block on back-pressure.
func (b *Box) handle(m *wire.Msg) error {
	key := reqKey{app: m.App, req: m.Req}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("box closed")
	}
	req, ok := b.requests[key]
	if !ok {
		if m.Type != wire.THello && m.Type != wire.TExpect {
			// Data for an unknown request: the request may have been
			// garbage collected after completion (duplicate delivery during
			// recovery); drop it.
			b.mu.Unlock()
			return nil
		}
		aggregator, found := b.cfg.Registry.Lookup(m.App)
		var refusal error
		if !found {
			refusal = fmt.Errorf("unknown application %q", m.App)
		} else if b.crashes[m.App] >= maxCrashes {
			refusal = fmt.Errorf("application %q is quarantined", m.App)
		}
		if refusal != nil {
			b.mu.Unlock()
			// A refused request still owes its job an answer. A THello names
			// the master at the end of its route; a TExpect carries no route,
			// but every request also sends each of its boxes a THello.
			if m.Type == wire.THello {
				if route, err := wire.DecodeStrings(m.Payload); err == nil && len(route) > 0 {
					b.sendError(key, route, refusal)
				}
			}
			return refusal
		}
		req = &boxRequest{
			key:       key,
			expected:  -1,
			nextSeq:   make(map[uint64]uint64),
			lastSeen:  time.Now(),
			firstSeen: time.Now(),
		}
		req.tree = NewLocalTree(b.sched, m.App, aggregator, maxPending, func(result *bufpool.Buf, err error) {
			defer b.wg.Done() // after the result's last Release: Close waits for it
			b.finishRequest(req, result, err)
		})
		b.wg.Add(1)
		b.requests[key] = req
	}

	// The liveness refresh happens after a stream frame's order guard: a
	// dropped frame must not keep a request alive (or count anything)
	// just by arriving.
	if m.Type == wire.TData || m.Type == wire.TEnd {
		if m.Seq != req.nextSeq[m.Source] {
			b.mu.Unlock()
			obsDupFrames.Inc()
			return nil
		}
		req.nextSeq[m.Source] = m.Seq + 1
		req.lastSeen = time.Now()
	}
	switch m.Type {
	case wire.THello:
		req.lastSeen = time.Now()
		route, err := wire.DecodeStrings(m.Payload)
		if err != nil {
			b.mu.Unlock()
			return err
		}
		if len(route) == 0 {
			b.mu.Unlock()
			return errors.New("empty route")
		}
		if req.route == nil {
			req.route = route
		} else if !slices.Equal(req.route, route) {
			b.mu.Unlock()
			return fmt.Errorf("conflicting routes for request %d", m.Req)
		}
		b.mu.Unlock()
		return nil

	case wire.TExpect:
		req.lastSeen = time.Now()
		count, err := wire.DecodeCount(m.Payload)
		if err != nil {
			b.mu.Unlock()
			return err
		}
		req.expected = count

	case wire.TEnd:
		req.ended++

	case wire.TData:
		b.stats.BytesIn += int64(len(m.Payload))
		req.frames++
		req.bytesIn += int64(len(m.Payload))
		obsFramesAgg.Inc()
		obsBoxBytesIn.Add(int64(len(m.Payload)))
		tree := req.tree
		b.mu.Unlock()
		// Add may block (back-pressure); it must run without b.mu held.
		// The frame's buffer reference moves to the tree, which releases
		// it after the part is combined (or on rejection).
		tree.Add(m.TakeBuf())
		return nil

	default:
		b.mu.Unlock()
		return fmt.Errorf("unexpected frame %s", m.Type)
	}
	// A TExpect or TEnd: once every expected source has ended, the tree's
	// inputs close, after b.mu is released.
	closing := !req.closed && req.expected >= 0 && req.ended >= req.expected
	req.closed = req.closed || closing
	b.mu.Unlock()
	if closing {
		req.tree.CloseInputs()
	}
	return nil
}

// drop takes a request out of the table — the only place one leaves it —
// and returns it, nil if it was not there. The caller holds b.mu and,
// unless the request's tree has already delivered, discards the tree once
// b.mu is released: Discard takes the tree lock, and releasing the
// buffered parts is what lets the request's pool buffers recycle.
func (b *Box) drop(key reqKey) *boxRequest {
	req := b.requests[key]
	delete(b.requests, key)
	return req
}

// handleCancel tears down a request its master has no further use for: a
// re-arm or subtree migration superseded its epoch, or the request ended
// in an error or was cancelled. Either way this box's partial state can
// never contribute again, and discarding it promptly releases the buffered
// partials' pool buffers instead of pinning them until the janitor's idle
// timeout. Unknown requests are a no-op — the cancel may race the
// request's own completion, which is fine because the master drops stale
// results anyway.
func (b *Box) handleCancel(m *wire.Msg) {
	b.mu.Lock()
	req := b.drop(reqKey{app: m.App, req: m.Req})
	b.mu.Unlock()
	if req != nil {
		obsBoxCancelled.Inc()
		b.discard(req)
		b.recordSpan(req, 0, 0, "cancelled")
	}
}

// recordSpan puts this box's hop on the request's trace, whichever way
// the request left the table: errText is empty for a result forwarded.
func (b *Box) recordSpan(req *boxRequest, aggNs, bytesOut int64, errText string) {
	obs.DefaultTracer.Record(req.key.req, req.key.app, obs.Span{
		Hop: "box", Node: b.obsNode,
		Start: req.firstSeen.UnixNano(), Agg: aggNs, End: time.Now().UnixNano(),
		Parts: req.frames, BytesIn: req.bytesIn, BytesOut: bytesOut, Err: errText,
	})
}

// finishRequest forwards the aggregated result down the route. It owns
// resultBuf's reference (handed over by the tree's onDone) and releases
// it after the sends complete on every path; the transport's send queue
// takes its own references through the outbound Msg.Buf fields. Nothing
// is kept once it is sent: a result lost with the connection to the next
// hop is recovered by the master's straggler timer.
func (b *Box) finishRequest(req *boxRequest, resultBuf *bufpool.Buf, err error) {
	defer resultBuf.Release()
	result := resultBuf.Bytes()
	if err == nil && len(result) > wire.MaxPayload {
		// An aggregate travels as one frame: whoever receives a TData merges
		// it as a canonical part, so cutting one at byte offsets is never
		// valid, and a split the next merge accepts needs the aggregator's
		// help. Until one offers it, too large is the job's error.
		err = fmt.Errorf("core: aggregate of %d bytes exceeds the frame limit of %d", len(result), wire.MaxPayload)
	}
	aggDone := time.Now()
	flushUs := aggDone.Sub(req.firstSeen).Microseconds()
	b.mu.Lock()
	route := req.route
	b.drop(req.key)
	b.stats.Requests++
	b.stats.Combines += req.tree.Combines()
	if err == nil {
		b.stats.BytesOut += int64(len(result))
	}
	// The flush latency's EWMA: ⅞ old + ⅛ new.
	if b.flushUs == 0 {
		b.flushUs = flushUs
	} else {
		b.flushUs = (b.flushUs*7 + flushUs) / 8
	}
	// A panic in the application's code, which the tree reports unwrapped,
	// is one crash, however many of the request's merges it hit.
	if crash, ok := err.(*appPanic); ok {
		b.crashes[crash.app]++
		if b.crashes[crash.app] == maxCrashes {
			err = fmt.Errorf("core: application %q quarantined after repeated crashes (last: %v)", crash.app, crash.value)
		}
	}
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	obsBoxRequests.Inc()
	obsBoxCombines.Add(req.tree.Combines())
	obsFanIn.Observe(int64(req.frames))
	obsFlushLatency.Observe(flushUs)
	if err == nil {
		obsBoxBytesOut.Add(int64(len(result)))
	}
	// The box hop's trace span is recorded after the result has been
	// forwarded, so End covers the emit (see defer below).
	defer func() {
		if err != nil {
			b.recordSpan(req, aggDone.UnixNano(), 0, err.Error())
		} else {
			b.recordSpan(req, aggDone.UnixNano(), int64(len(result)), "")
		}
	}()
	if route == nil {
		b.logf("box %d: request %d completed without a route", b.cfg.ID, req.key.req)
		return
	}
	if err != nil {
		b.sendError(req.key, route, err)
		return
	}
	if len(route) == 1 {
		// Next hop is the master: deliver the final result.
		b.send(route[0], &wire.Msg{
			Type: wire.TResult, App: req.key.app, Req: req.key.req,
			Source: b.cfg.ID, Payload: result, Buf: resultBuf,
		})
		return
	}
	// Forward to the next box: one well-formed part for its merge, Seq 0,
	// and the stream's end, Seq 1.
	next := route[0]
	b.send(next, &wire.Msg{
		Type: wire.THello, App: req.key.app, Req: req.key.req,
		Source: b.cfg.ID, Payload: wire.EncodeStrings(route[1:]),
	})
	b.send(next, &wire.Msg{
		Type: wire.TData, App: req.key.app, Req: req.key.req,
		Source: b.cfg.ID, Payload: result, Buf: resultBuf,
	})
	b.send(next, &wire.Msg{
		Type: wire.TEnd, App: req.key.app, Req: req.key.req, Source: b.cfg.ID, Seq: 1,
	})
}

// sendError reports a fatal aggregation error to the master.
func (b *Box) sendError(key reqKey, route []string, err error) {
	b.send(route[len(route)-1], &wire.Msg{
		Type: wire.TError, App: key.app, Req: key.req,
		Source: b.cfg.ID, Payload: []byte(err.Error()),
	})
}

// janitor garbage-collects idle requests (lost senders, duplicate state
// left behind by recovery).
func (b *Box) janitor() {
	defer b.wg.Done()
	tick := time.NewTicker(idleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-tick.C:
			b.sweep(time.Now())
		}
	}
}

// sweep discards every request that has seen no traffic for idleTimeout
// as of now.
func (b *Box) sweep(now time.Time) {
	var stale []*boxRequest
	b.mu.Lock()
	for key, req := range b.requests {
		if now.Sub(req.lastSeen) > idleTimeout {
			stale = append(stale, b.drop(key))
		}
	}
	b.mu.Unlock()
	for _, req := range stale {
		b.discard(req)
		b.recordSpan(req, 0, 0, "idle")
	}
}

func (b *Box) logf(format string, args ...interface{}) {
	log.Printf(format, args...)
}
