package shim

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/netem"
	"netagg/internal/obs"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// MasterConfig configures a master-side shim.
type MasterConfig struct {
	// Host is the master's position in the cluster.
	Host cluster.Host
	// Deployment is the shared cluster state.
	Deployment *cluster.Deployment
	// NIC optionally paces the master's traffic (the 1 Gbps frontend link
	// whose congestion NetAgg relieves).
	NIC *netem.NIC
	// StragglerTimeout redirects a request that has not completed in time
	// (§3.1 "Handling stragglers"); 0 disables recovery.
	StragglerTimeout time.Duration
}

// maxAttempts bounds the recovery attempts per request (the wire encoding
// has room for 15).
const maxAttempts = 3

// noticeBatch is how many ended requests of one application the master
// collects for a worker before it sends them in one TDone: a frame per
// request and worker cost a job more than the retained sends it freed.
const noticeBatch = 64

// ErrCancelled is the Result.Err of a request its caller gave up on
// (Pending.Cancel).
var ErrCancelled = errors.New("shim: request cancelled")

var errMasterClosed = errors.New("shim: master closed")

// Result is a completed request's aggregated data.
type Result struct {
	// Parts holds the final payloads: one per aggregation tree root plus
	// one per worker that had no on-path box. The application performs the
	// final aggregation step over them (§3.1).
	Parts [][]byte
	// Err is non-nil if aggregation failed or recovery attempts ran out.
	Err error
	// Attempts is the number of recovery attempts used (0 = first try).
	Attempts int

	// bufs holds the pooled buffer references backing Parts.
	bufs []*bufpool.Buf
}

// Release gives the pooled buffers backing Parts back once the
// application has consumed (or copied out of) the result. Parts is
// nilled so stale slices cannot read recycled bytes. Optional: an
// unreleased result is reclaimed by the GC at pool-recycling cost.
func (r *Result) Release() {
	for _, b := range r.bufs {
		b.Release()
	}
	r.bufs = nil
	r.Parts = nil
}

// Pending is a request registered with the master shim.
type Pending struct {
	// C delivers the request's result exactly once.
	C <-chan Result

	c       chan Result
	m       *Master
	req     uint64
	workers []string
	trees   int
	app     string
	// submittedAt anchors the request's master trace span.
	submittedAt time.Time

	mu          sync.Mutex
	attempt     int
	needed      int // sources that must deliver before completion
	sourcesDone int
	received    [][]byte
	// nextSeq is the next sequence number taken from each source stream.
	// The attempt guard drops other epochs' frames, but a worker re-sends
	// a whole stream at the same attempt when its connection is lost: a
	// source's frames are taken strictly in order, so the re-sent TData
	// do not duplicate their parts, a re-sent TEnd or TResult does not
	// double-count sourcesDone, and a stream with a gap never ends. Same
	// discipline as boxRequest.nextSeq on the box side.
	nextSeq map[srcKey]uint64
	// bufs tracks every pooled buffer reference taken for received
	// payloads; finish moves them into a successful Result and releases
	// them on any other ending, arm releases them on re-arm.
	bufs  []*bufpool.Buf
	timer *time.Timer
	// boxes holds, for each box of the current attempt's plan, the count
	// its TExpect announced for each tree (0 where the box is not in the
	// tree); nil until the first arm. It is replaced whole, never changed.
	boxes map[uint64][]int
	done  bool
}

type srcKey struct {
	wireReq uint64
	source  uint64
}

// Master is a master host's shim layer.
type Master struct {
	cfg  MasterConfig
	srv  *transport.Server
	pool *transport.Pool // to the boxes
	ctl  *transport.Pool // to the workers' control listeners

	mu      sync.Mutex
	pending map[pendKey]*Pending
	// notices holds, per worker and application, the ended requests the
	// worker has not been sent a TDone for yet.
	notices map[noticeKey]*[]uint64
	closed  bool

	bytesIn atomic.Int64
}

type pendKey struct {
	app string
	req uint64
}

type noticeKey struct {
	worker string
	app    string
}

// notice is one full batch on its way to a worker: a TDone payload.
type notice struct {
	noticeKey
	ids []byte
}

// NewMaster starts the master shim's result listener and registers its
// address in the deployment.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("shim: master requires a deployment")
	}
	m := &Master{
		cfg:     cfg,
		pending: make(map[pendKey]*Pending),
		notices: make(map[noticeKey]*[]uint64),
	}
	// Only the box hop answers a lost connection: OnLost also makes the
	// flusher re-dial at once, and a worker host that has gone away is
	// dialled again on the next TRedirect or TDone, not for ever.
	m.pool = transport.NewPool(transport.Options{NIC: cfg.NIC, OnLost: m.reannounce})
	m.ctl = transport.NewPool(transport.Options{NIC: cfg.NIC})
	// The result listener: every frame lands in handle on its
	// connection's reader goroutine; the transport server owns the accept
	// loop, reader lifecycle, and drain.
	srv, err := transport.Listen(nil, "127.0.0.1:0",
		func(_ *transport.ServerConn, msg *wire.Msg) { m.handle(msg) },
		transport.ServerOptions{NIC: cfg.NIC})
	if err != nil {
		m.pool.Close()
		m.ctl.Close()
		return nil, err
	}
	m.srv = srv
	cfg.Deployment.SetResultAddr(cfg.Host.Name, srv.Addr())
	return m, nil
}

// Close stops the shim. Outstanding requests fail with an error.
func (m *Master) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	pend := make([]*Pending, 0, len(m.pending))
	for _, p := range m.pending {
		pend = append(pend, p)
	}
	m.mu.Unlock()
	for _, p := range pend {
		m.finish(p, errMasterClosed)
	}
	m.srv.Close()
	m.pool.Close()
	m.ctl.Close()
}

// Submit registers a request: it plans the aggregation trees, announces the
// expected source counts to every box involved (§3.2.2 "Partial result
// collection"), and returns a Pending whose channel delivers the result.
// The workers' shims must be told to SendPartials separately (normally by
// the application's sub-requests). Submit accepts the id of a request that
// has ended, but a worker may still hold that request's send and, if a
// connection is lost before it sends for the new one, re-send the old
// stream into it: reuse an id no sooner than the workers' retention after
// its end (DESIGN.md §16).
func (m *Master) Submit(app string, req uint64, workers []string, trees int) (*Pending, error) {
	if trees < 1 {
		trees = 1
	}
	if trees > cluster.MaxTrees {
		return nil, fmt.Errorf("shim: at most %d trees, got %d", cluster.MaxTrees, trees)
	}
	if req > cluster.MaxReq {
		return nil, fmt.Errorf("shim: request id %d exceeds the wire's limit of %d", req, cluster.MaxReq)
	}
	for _, w := range workers {
		if _, ok := m.cfg.Deployment.Host(w); !ok {
			return nil, fmt.Errorf("shim: unknown worker host %q", w)
		}
	}
	p := &Pending{
		c:           make(chan Result, 1),
		m:           m,
		req:         req,
		app:         app,
		workers:     workers,
		trees:       trees,
		nextSeq:     make(map[srcKey]uint64),
		submittedAt: time.Now(),
	}
	p.C = p.c
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errMasterClosed
	}
	key := pendKey{app, req}
	if _, dup := m.pending[key]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("shim: request %d already pending", req)
	}
	m.pending[key] = p
	// A reused id must not be noticed to its workers after they have sent
	// for this incarnation: take it out of the batches not yet sent.
	for _, w := range workers {
		if ids := m.notices[noticeKey{w, app}]; ids != nil {
			if i := slices.Index(*ids, req); i >= 0 {
				*ids = slices.Delete(*ids, i, i+1)
			}
		}
	}
	m.mu.Unlock()

	if _, err := m.arm(p, 0, 0); err != nil {
		// arm may have started the straggler timer and reached some boxes
		// before the announce failed: end the request so neither outlives it.
		m.finish(p, err)
		return nil, err
	}
	return p, nil
}

// arm plans an attempt through the deployment's planner, announces
// expectations to the boxes, and starts the straggler timer. A request
// that completed (or failed) while the attempt was being planned is left
// untouched: arming must never resurrect a finished request's timer. So is
// one that is not on the attempt before this one: the straggler timer and a
// Supersede may both ask for the successor of the attempt they saw, and
// arming it a second time would cancel at the boxes what the workers have
// delivered for it, while arming it after something else has moved the
// request on would move it for a reason that no longer holds. And so
// is one whose fresh plan still routes through avoid, the box this attempt
// exists to get away from (0 = none): a congested box that is its switch's
// only live one stays in the plan as the last resort, and moving a request
// from it onto itself would spend an attempt and a full resend on nothing.
func (m *Master) arm(p *Pending, attempt int, avoid uint64) (armed bool, err error) {
	trees := make([]treeplan.Tree, p.trees)
	for tr := range trees {
		trees[tr] = m.cfg.Deployment.Plan(treeplan.NewRequest(p.req, tr, attempt, m.cfg.Host.Name, p.workers))
		if _, still := trees[tr].Expect[avoid]; still {
			return false, nil
		}
	}

	p.mu.Lock()
	if p.done || (p.boxes != nil && attempt != p.attempt+1) {
		p.mu.Unlock()
		return false, nil
	}
	oldAttempt, oldBoxes := p.attempt, p.boxes
	p.attempt = attempt
	p.needed = treeplan.TotalFinals(trees)
	p.sourcesDone = 0
	p.received = nil
	// A re-arm abandons the previous attempt's partial deliveries: give
	// their buffers back before dropping the slices.
	for _, b := range p.bufs {
		b.Release()
	}
	p.bufs = nil
	p.nextSeq = make(map[srcKey]uint64)
	boxes := expectations(trees)
	p.boxes = boxes
	if p.timer != nil {
		p.timer.Stop()
	}
	if m.cfg.StragglerTimeout > 0 {
		p.timer = time.AfterFunc(m.cfg.StragglerTimeout, func() { m.redirect(p, attempt, "straggler", 0) })
	}
	p.mu.Unlock()

	// A re-arm supersedes the previous attempt's epoch: tell its boxes to
	// discard their partial aggregation state now, instead of letting the
	// buffered partials pin pool buffers until the janitor's idle timeout.
	// Correctness never depends on these cancels landing — the old epoch's
	// wire request id can no longer complete at this master.
	if attempt > 0 && len(oldBoxes) > 0 {
		m.cancelAttempt(p, oldBoxes, oldAttempt)
	}
	return true, m.announce(p, boxes, attempt, "")
}

// expectations turns a plan's per-tree counts into Pending.boxes.
func expectations(trees []treeplan.Tree) map[uint64][]int {
	boxes := make(map[uint64][]int)
	for tree, t := range trees {
		for id, count := range t.Expect {
			if boxes[id] == nil {
				boxes[id] = make([]int, len(trees))
			}
			boxes[id][tree] = count
		}
	}
	return boxes
}

// announce tells each box of an attempt how many direct sources to expect
// in each of its trees (TExpect) — with only set, just the box at that
// address.
func (m *Master) announce(p *Pending, boxes map[uint64][]int, attempt int, only string) error {
	for boxID, counts := range boxes {
		box, ok := m.cfg.Deployment.Box(boxID)
		if !ok || (only != "" && box.Addr != only) {
			continue
		}
		for tree, count := range counts {
			if count == 0 {
				continue
			}
			err := m.pool.Send(box.Addr, &wire.Msg{
				Type: wire.TExpect, App: p.app, Req: cluster.WireReq(p.req, tree, attempt),
				Payload: wire.EncodeCount(count),
			})
			if err != nil {
				return fmt.Errorf("shim: expect to box %d: %w", boxID, err)
			}
		}
	}
	return nil
}

// reannounce answers the loss of the connection to a box's address
// (transport's OnLost): every pending request whose current attempt uses
// the box is announced to it again. A TExpect the dead connection took
// unread, or a box restarted on its address, would otherwise leave the
// request waiting for its straggler timer, or for ever without one. The
// counts are the ones the attempt was armed with, never a fresh plan's: the
// deployment may have changed since, and a smaller count would let the box
// close on the sources it has and forward a short aggregate as the tree's
// final. The same counts again change nothing at a box that had them.
func (m *Master) reannounce(addr string) {
	var at []uint64
	for _, b := range m.cfg.Deployment.Boxes() {
		if b.Addr == addr {
			at = append(at, b.ID)
		}
	}
	for p, a := range m.attemptsUsing(at...) {
		if err := m.announce(p, a.boxes, a.attempt, addr); err != nil {
			log.Printf("shim: re-announce request %d attempt %d: %v", p.req, a.attempt, err)
		}
	}
}

// armedAttempt is a pending request's current attempt and its
// Pending.boxes.
type armedAttempt struct {
	attempt int
	boxes   map[uint64][]int
}

// attemptsUsing returns every pending request whose current attempt routes
// through one of the boxes, with that attempt.
func (m *Master) attemptsUsing(boxes ...uint64) map[*Pending]armedAttempt {
	affected := make(map[*Pending]armedAttempt)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.pending {
		p.mu.Lock()
		for _, id := range boxes {
			if _, used := p.boxes[id]; used && !p.done {
				affected[p] = armedAttempt{p.attempt, p.boxes}
			}
		}
		p.mu.Unlock()
	}
	return affected
}

// redirect supersedes a pending request's attempt from with the next one:
// it replans around dead and congested boxes and tells every worker shim
// to resend (§3.1), reporting whether the request moved. It has not if the
// request is no longer on from (arm declines): whatever the caller wanted
// to get away from — a timeout that ran on that attempt, a box in its plan
// — something else already has. When the attempt budget is exhausted, or
// the new attempt cannot be announced, the request ends in an error. cause
// is why — the "straggler" timer (box 0), a box's "failover" or a
// "migrate" off a congested box — and goes on the new attempt's trace with
// the box, so an operator reading /debug/netagg/traces sees what moved the
// request and when (OPERATIONS.md §9).
func (m *Master) redirect(p *Pending, from int, cause string, box uint64) bool {
	start := time.Now()
	attempt := from + 1
	if attempt > maxAttempts {
		m.finish(p, fmt.Errorf("shim: request %d failed after %d attempts", p.req, attempt-1))
		return false
	}
	armed, err := m.arm(p, attempt, box)
	if err != nil {
		m.finish(p, err)
		return false
	}
	if !armed {
		return false
	}
	obsRedirectsSent.Inc()
	// The span covers replanning and the announce, and is on the trace
	// before any worker can answer the redirect.
	node := m.cfg.Host.Name
	if box != 0 {
		node = fmt.Sprintf("box:%d", box)
	}
	for tree := 0; tree < p.trees; tree++ {
		obs.DefaultTracer.Record(cluster.WireReq(p.req, tree, attempt), p.app, obs.Span{
			Hop: cause, Node: node,
			Start: start.UnixNano(), End: time.Now().UnixNano(),
		})
	}
	for _, worker := range p.workers {
		addr, ok := m.cfg.Deployment.ControlAddr(worker)
		if !ok {
			continue
		}
		// Redirects are best-effort: a worker shim we cannot reach simply
		// misses this attempt and the straggler timer fires again, but the
		// failure must not be silent.
		if err := m.ctl.Send(addr, &wire.Msg{
			Type: wire.TRedirect, App: p.app, Req: p.req,
			Payload: wire.EncodeCount(attempt),
		}); err != nil {
			log.Printf("shim: redirect request %d attempt %d to %s: %v", p.req, attempt, addr, err)
		}
	}
	return true
}

// cancelAttempt sends TCancel for every (tree, box) of an attempt that
// was superseded or ended in an error, best-effort: an unreachable box
// keeps its stale state until the janitor collects it, which costs
// buffer residency, not correctness.
func (m *Master) cancelAttempt(p *Pending, boxes map[uint64][]int, attempt int) {
	for boxID := range boxes {
		box, ok := m.cfg.Deployment.Box(boxID)
		if !ok {
			continue
		}
		for tree := 0; tree < p.trees; tree++ {
			if err := m.pool.Send(box.Addr, &wire.Msg{
				Type: wire.TCancel, App: p.app, Req: cluster.WireReq(p.req, tree, attempt),
			}); err != nil {
				log.Printf("shim: cancel request %d attempt %d at box %d: %v", p.req, attempt, boxID, err)
			}
		}
	}
}

// Supersede moves every pending request whose current attempt routes
// through the box onto a freshly planned attempt that does not, and
// returns how many it moved. It is the one verb behind failure recovery
// and congestion migration alike: the caller has already marked the box
// in the deployment — dead for cause "failover", congested for "migrate" —
// so the new attempt routes around it; the old attempt's boxes receive
// TCancel and drain their partials; and the attempt epoch in every wire
// request id guarantees nothing is lost or double-combined — the new
// attempt is complete on its own, and stale frames from the old epoch are
// dropped by the master's attempt check.
func (m *Master) Supersede(boxID uint64, cause string) int {
	moved := 0
	for p, a := range m.attemptsUsing(boxID) {
		if m.redirect(p, a.attempt, cause, boxID) {
			moved++
		}
	}
	return moved
}

// finish is the one place a request ends, whatever ends it, and so the
// one place its trace is completed. A nil err is the successful ending
// and takes effect only once every source of the
// current attempt has delivered: handle calls it after each source it
// counts, and a re-arm that slipped in between finds the new attempt
// incomplete. Any other err ends the request now: the partial deliveries
// go back to the pool and the attempt's boxes are told to drop theirs
// (except at Close, whose pool is going away) — before the id is released,
// so that a resubmission's TExpect, which travels the same connections,
// cannot be overtaken by this request's TCancel. done flips under p.mu, so
// exactly one caller gets past it; the request is deregistered before the
// result is delivered, outside the lock, so a caller that resubmits the
// id the moment it reads the Result never finds it still pending.
//
// Every ending but Close also queues the request for a TDone to each of
// its workers, in the same critical section as the deregistration, so a
// resubmission of the id finds it there (Submit takes it out). A batch
// that fills is sent after the result is delivered: the send is
// synchronous while a worker's connection is down, and a notice must
// never hold up a result.
func (m *Master) finish(p *Pending, err error) {
	p.mu.Lock()
	if p.done || (err == nil && p.sourcesDone < p.needed) {
		p.mu.Unlock()
		return
	}
	p.done = true
	if p.timer != nil {
		p.timer.Stop()
	}
	res := Result{Err: err, Attempts: p.attempt}
	if err == nil {
		// The buffer references move into the Result; the application
		// releases them (Result.Release) when done.
		res.Parts, res.bufs = p.received, p.bufs
	} else {
		for _, b := range p.bufs {
			b.Release()
		}
	}
	p.received, p.bufs = nil, nil
	boxes := p.boxes
	p.mu.Unlock()

	m.observeEnding(p, &res)
	if err != nil && err != errMasterClosed {
		m.cancelAttempt(p, boxes, res.Attempts)
	}
	m.mu.Lock()
	delete(m.pending, pendKey{p.app, p.req})
	var full []notice
	if !m.closed {
		full = m.noteEndedLocked(p)
	}
	m.mu.Unlock()
	p.c <- res
	for _, n := range full {
		m.sendNotice(n)
	}
}

// noteEndedLocked adds an ended request to the batch of each of its
// workers and returns the batches it filled, encoded and emptied.
func (m *Master) noteEndedLocked(p *Pending) []notice {
	var full []notice
	for _, w := range p.workers {
		k := noticeKey{w, p.app}
		ids := m.notices[k]
		if ids == nil {
			ids = new([]uint64)
			m.notices[k] = ids
		}
		if *ids = append(*ids, p.req); len(*ids) >= noticeBatch {
			full = append(full, notice{k, wire.EncodeIDs(*ids)})
			*ids = (*ids)[:0]
		}
	}
	return full
}

// sendNotice sends a full batch to its worker's control address, the path
// TRedirect takes. A lost notice costs the worker memory until retention
// ages the sends out, never correctness.
func (m *Master) sendNotice(n notice) {
	addr, ok := m.cfg.Deployment.ControlAddr(n.worker)
	if !ok {
		return
	}
	if err := m.ctl.Send(addr, &wire.Msg{Type: wire.TDone, App: n.app, Payload: n.ids}); err != nil {
		log.Printf("shim: done notice to worker %s: %v", n.worker, err)
	}
}

// Cancel ends the request with ErrCancelled: whatever it had collected
// goes back to the pool, its boxes are told to drop their state, and the
// id is free for Submit the moment Cancel returns. It is idempotent and a
// no-op on a request that has already ended.
func (p *Pending) Cancel() { p.m.finish(p, ErrCancelled) }

// ResultBytes reports the total payload bytes the result listener has
// received, for throughput measurements.
func (m *Master) ResultBytes() int64 { return m.bytesIn.Load() }

// handle processes one frame arriving at the result listener: TResult from
// a box, TData/TEnd streams from workers with no on-path box, or TError.
// TestMasterHandlesEveryFrameItReceives holds the switch to the master's
// column of wire.Protocol().
func (m *Master) handle(msg *wire.Msg) {
	wire.CheckReceive(wire.RoleMaster, msg)
	// Payloads that get buffered below take the frame's reference via
	// TakeBuf, making this deferred Release a no-op for them; every other
	// path (unknown request, stale attempt, TEnd/TError) recycles here.
	defer msg.Release()
	if msg.Type == wire.TResult || msg.Type == wire.TData {
		m.bytesIn.Add(int64(len(msg.Payload)))
	}
	req, _, attempt := cluster.DecodeWireReq(msg.Req)
	m.mu.Lock()
	p, ok := m.pending[pendKey{msg.App, req}]
	m.mu.Unlock()
	if !ok {
		return // completed or unknown: duplicate delivery from recovery
	}

	p.mu.Lock()
	if p.done || attempt != p.attempt {
		p.mu.Unlock()
		return
	}
	// Same-epoch order guard: a worker's direct stream numbers its TData
	// frames 0..n-1 and its TEnd n, and a box's TResult arrives as Seq 0,
	// so a frame that is not its source's next is a re-sent duplicate, or
	// follows a gap, and the attempt check cannot see either.
	k := srcKey{msg.Req, msg.Source}
	if msg.Type == wire.TResult || msg.Type == wire.TData || msg.Type == wire.TEnd {
		if msg.Seq != p.nextSeq[k] {
			p.mu.Unlock()
			obsDupAtMaster.Inc()
			return
		}
		p.nextSeq[k] = msg.Seq + 1
	}
	var failure error // set when this frame ends the request in an error
	switch msg.Type {
	case wire.TResult:
		// A fully aggregated result from an agg box chain root.
		if len(msg.Payload) > 0 {
			p.received = append(p.received, msg.Payload)
			p.bufs = append(p.bufs, msg.TakeBuf())
		}
		p.sourcesDone++
	case wire.TData:
		// A chunk from a worker with no on-path box. The final merge is
		// commutative and a request completes only when every source has
		// ended, so chunks join the parts as they arrive.
		p.received = append(p.received, msg.Payload)
		p.bufs = append(p.bufs, msg.TakeBuf())
	case wire.TEnd:
		p.sourcesDone++
	case wire.TError:
		failure = fmt.Errorf("shim: aggregation failed: %s", msg.Payload)
	default:
		p.mu.Unlock()
		wire.Unexpected(wire.RoleMaster, msg)
		return
	}
	p.mu.Unlock()
	m.finish(p, failure)
}

// observeEnding completes each tree's trace with the master span, carrying
// the error of a request that ended in one, and records a successful
// request's metrics: result size and — when the worker shims share this
// process (testbed) — the observed per-job aggregation ratio α (received
// bytes over shim-sent bytes).
func (m *Master) observeEnding(p *Pending, res *Result) {
	span := obs.Span{
		Hop: "master", Node: m.cfg.Host.Name,
		Start: p.submittedAt.UnixNano(), End: time.Now().UnixNano(),
		Parts: len(res.Parts),
	}
	if res.Err != nil {
		span.Err = res.Err.Error()
	}
	for _, part := range res.Parts {
		span.BytesIn += int64(len(part))
	}
	var sent int64
	for tree := 0; tree < p.trees; tree++ {
		sent += obs.DefaultTracer.Finish(cluster.WireReq(p.req, tree, res.Attempts), p.app, span, "shim.send")
	}
	if res.Err != nil {
		return
	}
	obsResultBytes.Observe(span.BytesIn)
	if sent > 0 {
		obsAlphaPct.Observe(span.BytesIn * 100 / sent)
	}
}
