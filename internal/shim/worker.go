// Package shim implements NetAgg's shim layers (§3.2.2): the worker-side
// shim that transparently redirects partial results to the first agg box on
// the path towards the master (partitioning them across aggregation trees),
// and the master-side shim that announces expected partial-result counts to
// the boxes, collects aggregated results, emulates the missing partials
// towards the application, and drives straggler/failure recovery.
package shim

import (
	"fmt"
	"log"
	"sync"
	"time"

	"netagg/internal/cluster"
	"netagg/internal/netem"
	"netagg/internal/obs"
	"netagg/internal/topology"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// WorkerConfig configures a worker-side shim.
type WorkerConfig struct {
	// Host is this worker's position in the cluster.
	Host cluster.Host
	// Deployment is the shared cluster state.
	Deployment *cluster.Deployment
	// NIC optionally paces this host's traffic (1 Gbps edge link).
	NIC *netem.NIC
}

// retention bounds how long sent partial results stay buffered for
// recovery resends when no TDone says the request has ended — the bound
// for a notice that is lost.
const retention = 30 * time.Second

// Worker is a worker host's shim layer.
type Worker struct {
	cfg  WorkerConfig
	pool *transport.Pool
	ctl  *transport.Server

	mu       sync.Mutex
	buffered map[bufKey]*bufferedSend
	// expiry holds the retained sends in sentAt order (sends are stamped
	// under mu), so letting go of ended and aged ones pops a prefix
	// instead of scanning buffered on every send.
	expiry []*bufferedSend
	closed bool
}

type bufKey struct {
	app string
	req uint64
}

// bufferedSend remembers a sent request so a TRedirect can send it again
// along a freshly planned route, and a lost connection can send it again
// along the same one (§3.1: recovery resends redirect "future partial
// results"; we keep the already produced ones since workers in the paper
// equally hold their outputs until fetched).
type bufferedSend struct {
	app       string
	req       uint64
	workerIdx int
	master    string
	parts     [][]byte
	trees     int
	sentAt    time.Time
	// lastAttempt is the attempt the request was last sent at: a redirect
	// to it or an older one is a duplicate (the master's straggler timer
	// and the failure monitor may both request the same attempt), and a
	// lost connection is recovered at it.
	lastAttempt int
}

// NewWorker starts the worker shim, including its control listener for
// redirect messages, and registers its control address in the deployment.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("shim: worker requires a deployment")
	}
	w := &Worker{
		cfg:      cfg,
		buffered: make(map[bufKey]*bufferedSend),
	}
	w.pool = transport.NewPool(transport.Options{NIC: cfg.NIC, OnLost: w.resend})
	// The control listener carries only tiny redirect frames, so it is
	// deliberately not NIC-paced (recovery signalling should not queue
	// behind a congested emulated edge link).
	ctl, err := transport.Listen(nil, "127.0.0.1:0", w.control, transport.ServerOptions{})
	if err != nil {
		w.pool.Close()
		return nil, err
	}
	w.ctl = ctl
	cfg.Deployment.SetControlAddr(cfg.Host.Name, ctl.Addr())
	return w, nil
}

// Close stops the shim.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	obsRetainedSends.Add(-int64(len(w.expiry)))
	w.buffered, w.expiry = nil, nil
	w.mu.Unlock()
	w.ctl.Close()
	w.pool.Close()
}

// SendPartials ships one worker's partial results for a request towards the
// master: partitioned across the aggregation trees, each stream redirected
// to the first on-path agg box (or straight to the master if no box is on
// the path). workerIdx must be unique among the request's workers.
func (w *Worker) SendPartials(app string, req uint64, workerIdx int, master string, parts [][]byte, trees int) error {
	if trees < 1 {
		trees = 1
	}
	if trees > cluster.MaxTrees {
		return fmt.Errorf("shim: at most %d trees, got %d", cluster.MaxTrees, trees)
	}
	if req > cluster.MaxReq {
		return fmt.Errorf("shim: request id %d exceeds the wire's limit of %d", req, cluster.MaxReq)
	}
	b := &bufferedSend{
		app: app, req: req, workerIdx: workerIdx,
		master: master, parts: parts, trees: trees,
	}
	for _, part := range parts {
		obsPartialBytes.Observe(int64(len(part)))
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("shim: worker closed")
	}
	b.sentAt = time.Now()
	w.buffered[bufKey{app, req}] = b
	w.expiry = append(w.expiry, b)
	obsRetainedSends.Add(1)
	w.expireLocked(b.sentAt)
	w.mu.Unlock()
	_, err := w.send(b, 0, "")
	return err
}

// expireLocked pops from the head of the queue every send that is no
// longer retained: one that is no longer the map's entry for its key — a
// TDone deleted it, or a re-send of its (app, req) overwrote it — and one
// older than retention as of now, whose entry goes with it. It stops at
// the first send still retained and younger than retention, so a send
// that has ended behind one that has not waits for it.
func (w *Worker) expireLocked(now time.Time) {
	cutoff := now.Add(-retention)
	n := 0
	for ; n < len(w.expiry); n++ {
		old := w.expiry[n]
		if key := (bufKey{old.app, old.req}); w.buffered[key] == old {
			if !old.sentAt.Before(cutoff) {
				break
			}
			delete(w.buffered, key)
		}
		w.expiry[n] = nil // the backing array must not pin what the map let go
	}
	w.expiry = w.expiry[n:]
	obsRetainedSends.Add(-int64(n))
}

// send transmits the buffered request at the given recovery attempt,
// asking the deployment's planner for this worker's route alone (per-worker
// decomposability guarantees it is the chain the master's tree holds for
// the same attempt). With only set, it sends just the trees whose route
// starts at that address. It reports how many trees it sent.
func (w *Worker) send(b *bufferedSend, attempt int, only string) (int, error) {
	dep := w.cfg.Deployment
	if _, ok := dep.Host(b.master); !ok {
		return 0, fmt.Errorf("shim: unknown master host %q", b.master)
	}
	resultAddr, ok := dep.ResultAddr(b.master)
	if !ok {
		return 0, fmt.Errorf("shim: master %q has no result address", b.master)
	}
	// A tree's stream is at most a THello, every part and a TEnd: the
	// frames live in one array, SendAll's pointers in another.
	frames := make([]wire.Msg, 0, len(b.parts)+2)
	msgs := make([]*wire.Msg, 0, len(b.parts)+2)
	sent := 0
	for tree := 0; tree < b.trees; tree++ {
		wireReq := cluster.WireReq(b.req, tree, attempt)
		chain := dep.Route(treeplan.NewRequest(b.req, tree, attempt, b.master, nil), w.cfg.Host.Name)
		target := resultAddr
		if len(chain) > 0 {
			target = chain[0].Addr
		}
		if only != "" && target != only {
			continue
		}
		frame := wire.Msg{App: b.app, Req: wireReq, Source: uint64(b.workerIdx)}
		frames = frames[:0]
		if len(chain) > 0 {
			hello := frame
			hello.Type, hello.Payload = wire.THello, wire.EncodeStrings(treeplan.RouteAddrs(chain[1:], resultAddr))
			frames = append(frames, hello)
		}
		var treeBytes int64
		treeParts := 0
		frame.Type = wire.TData
		for pi, part := range b.parts {
			if b.trees > 1 && treeOf(b.req, pi, b.trees) != tree {
				continue
			}
			frame.Payload = part
			frames = append(frames, frame)
			frame.Seq++
			treeBytes += int64(len(part))
			treeParts++
		}
		// TEnd carries the next sequence number after the data frames:
		// receivers take a source's frames strictly in order, so a re-sent
		// stream's TEnd is dropped like its TData, and a stream with a gap
		// never ends.
		frame.Type, frame.Payload = wire.TEnd, nil
		frames = append(frames, frame)
		msgs = msgs[:0]
		for i := range frames {
			msgs = append(msgs, &frames[i])
		}
		start := time.Now()
		if err := w.pool.Get(target).SendAll(msgs); err != nil {
			return sent, fmt.Errorf("shim: send tree %d to %s: %w", tree, target, err)
		}
		sent++
		obs.DefaultTracer.Record(wireReq, b.app, obs.Span{
			Hop: "shim.send", Node: w.cfg.Host.Name,
			Start: start.UnixNano(), End: time.Now().UnixNano(),
			Parts: treeParts, BytesOut: treeBytes,
		})
	}
	return sent, nil
}

// treeOf partitions partial results across trees by hashing the part index
// with the request id (§3.1: "the shim layers at the worker nodes partition
// partial results across the trees ... by hashing request identifiers or
// keys in the data").
func treeOf(req uint64, partIdx, trees int) int {
	return int(topology.FlowHash(0x7EE, req, uint64(partIdx)) % uint64(trees))
}

// control processes one control frame from a master shim. It runs on
// the control server's reader goroutine for the sending master.
// TestWorkerHandlesEveryFrameItReceives holds the switch to the worker's
// column of wire.Protocol().
func (w *Worker) control(_ *transport.ServerConn, m *wire.Msg) {
	wire.CheckReceive(wire.RoleWorker, m)
	defer m.Release() // DecodeCount and DecodeIDs copy out of the payload
	switch m.Type {
	case wire.TRedirect:
		w.applyRedirect(m)
	case wire.TDone:
		w.applyDone(m)
	default:
		wire.Unexpected(wire.RoleWorker, m)
	}
}

// applyRedirect sends a buffered request again along a freshly planned
// route for the redirect's attempt, unless the redirect is a duplicate or
// stale (the straggler timer and the failure monitor may both request
// the same attempt, and sending it twice would double-count the data at
// the boxes).
func (w *Worker) applyRedirect(m *wire.Msg) {
	attempt, err := wire.DecodeCount(m.Payload)
	if err != nil {
		return
	}
	w.mu.Lock()
	b, ok := w.buffered[bufKey{m.App, m.Req}]
	if !ok || attempt <= b.lastAttempt {
		w.mu.Unlock()
		return
	}
	b.lastAttempt = attempt
	w.mu.Unlock()
	obsRedirectsApplied.Inc()
	// Replan happens inside send: dead boxes are excluded from chains,
	// and the new attempt id keeps the re-sent streams distinct at every
	// box.
	if _, err := w.send(b, attempt, ""); err != nil {
		log.Printf("shim: worker %s resending request %d attempt %d: %v", w.cfg.Host.Name, m.Req, attempt, err)
	}
}

// resend answers the loss of the connection to addr (transport's OnLost):
// every retained stream whose route, planned again at the attempt the
// request was last sent at, starts at addr is sent again whole. Whatever
// the dead connection took unread is among them; the receiver takes a
// source's frames strictly in order, so it drops what it already has and
// a gap is filled. A stream its request has since been redirected off
// routes elsewhere at the new attempt, and is not sent.
func (w *Worker) resend(addr string) {
	w.mu.Lock()
	w.expireLocked(time.Now())
	sends := make([]bufferedSend, 0, len(w.expiry)) // copies: lastAttempt is read under mu
	for _, b := range w.expiry {
		if w.buffered[bufKey{b.app, b.req}] == b {
			sends = append(sends, *b)
		}
	}
	w.mu.Unlock()
	for i := range sends {
		s := &sends[i]
		n, err := w.send(s, s.lastAttempt, addr)
		obsResentStreams.Add(int64(n))
		if err != nil {
			log.Printf("shim: worker %s resending request %d to %s: %v", w.cfg.Host.Name, s.req, addr, err)
		}
	}
}

// applyDone lets go of the retained sends of requests the master has
// ended: their map entries go now, so a later redirect finds nothing, and
// the queue pops them once nothing older is still retained. An id with no
// retained send — unknown, expired, or noticed before — is a no-op. A
// notice can arrive after a reused id's next incarnation has sent; it
// then takes that send's recovery copy (DESIGN.md §16).
func (w *Worker) applyDone(m *wire.Msg) {
	ids, err := wire.DecodeIDs(m.Payload)
	if err != nil {
		log.Printf("shim: worker %s dropping malformed done notice for %s: %v", w.cfg.Host.Name, m.App, err)
		return
	}
	obsEndedNotices.Add(int64(len(ids)))
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range ids {
		delete(w.buffered, bufKey{m.App, id})
	}
	w.expireLocked(time.Now())
}
