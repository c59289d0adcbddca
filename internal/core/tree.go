package core

import (
	"encoding/binary"
	"errors"
	"sync"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
)

// errDiscarded marks a tree torn down by the janitor or box shutdown;
// it never reaches a master because Discard detaches onDone first.
var errDiscarded = errors.New("core: aggregation tree discarded")

// fanIn is how many waiting parts, or how many waiting runs, make a merge
// batch: with parts and runs batched apart, each byte of a request of up
// to fanIn² parts is merged exactly twice on its way through a box, and
// batches are few enough parts that several of one request run as
// parallel tasks while it streams in.
const fanIn = 16

// LocalTree is the in-box aggregation structure for one request (§3.2.1
// "Local aggregation trees"): partial results stream in from the network
// layer, batches of them are merged by aggregation tasks running in
// parallel on the scheduler, and the merged runs wait in a list of their
// own, batched among themselves, until a single final result remains.
// Because the aggregation function is associative and commutative, any
// grouping of the merges yields the same result as a static tree; the
// cost is the grouping's, which is why a run never rides in a batch of
// parts (that would make the tree a chain, re-merging every earlier byte
// with each batch). A bounded buffer provides back-pressure: Add
// blocks when the tree cannot keep up, which in turn stops the network
// reader and lets TCP throttle the sender ("a back-pressure mechanism
// ensures that the workers reduce the rate at which they produce partial
// results").
type LocalTree struct {
	app        string
	aggregator agg.Aggregator
	sched      *Scheduler
	maxPending int
	// batchMin is how many buffered parts, or buffered runs, make a batch
	// due: min(fanIn, maxPending/2). The cap keeps both lists together
	// inside the back-pressure budget while neither is due — at most
	// 2(batchMin−1) ≤ maxPending−2 — which they must be or Add would block
	// with nothing to merge.
	batchMin int

	mu       sync.Mutex
	cond     *sync.Cond
	parts    []*bufpool.Buf // external parts, not yet in a task's batch
	runs     []*bufpool.Buf // outputs of the tree's own merges, not yet in a batch
	held     int            // inputs in the batches of queued or running tasks
	tasks    int            // merge tasks queued or running
	closed   bool
	finished bool
	err      error
	result   *bufpool.Buf
	onDone   func(*bufpool.Buf, error)

	// BytesIn counts external payload bytes, for throughput measurements.
	bytesIn int64
	// merges counts Merge calls executed.
	merges int64
	// cutThrough counts merges a task started without going back through
	// the scheduler, because another batch was due when its last ended.
	cutThrough int64
}

// NewLocalTree creates a tree executing app's aggregation function on
// sched. onDone is called exactly once, with the final aggregated result
// (nil if no parts were added) or the first merge error; it must not
// block. The callback owns the result's buffer reference and must
// Release it. maxPending bounds the parts the tree holds, buffered or
// being merged; values < 4 are raised to 4 so a merge can always be
// scheduled.
func NewLocalTree(sched *Scheduler, app string, aggregator agg.Aggregator, maxPending int, onDone func(*bufpool.Buf, error)) *LocalTree {
	if maxPending < 4 {
		maxPending = 4
	}
	t := &LocalTree{
		app:        app,
		aggregator: aggregator,
		sched:      sched,
		maxPending: maxPending,
		batchMin:   min(fanIn, maxPending/2),
		onDone:     onDone,
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Add feeds one partial result. The tree takes ownership of part's
// buffer reference in every outcome — including rejection — so callers
// hand their reference over and walk away. It blocks while the tree's
// buffer is full (back-pressure) and returns false if the tree already
// failed or was closed.
//
//netagg:owns part
func (t *LocalTree) Add(part *bufpool.Buf) bool {
	t.mu.Lock()
	// The budget counts buffered parts and runs and the batch of every
	// merge still queued or running, so a slow aggregator applies
	// back-pressure instead of letting the scheduler queue grow without
	// bound.
	for len(t.parts)+len(t.runs)+t.held >= t.maxPending && t.err == nil && !t.closed {
		t.cond.Wait()
	}
	if t.err != nil || t.closed {
		t.mu.Unlock()
		part.Release()
		return false
	}
	t.parts = append(t.parts, part) //netagg:owns part
	t.bytesIn += int64(part.Len())
	t.scheduleLocked()
	t.mu.Unlock()
	return true
}

// CloseInputs declares that no further parts will be added; once the
// merges drain and a single part remains, onDone fires.
func (t *LocalTree) CloseInputs() {
	t.mu.Lock()
	t.closed = true
	t.scheduleLocked() // the final batch, if no task is left to take it
	t.maybeFinishLocked()
	t.mu.Unlock()
}

// Discard tears the tree down without notifying onDone: buffered parts
// are released, waiters are unblocked, and running merges release their
// inputs and output as they drain. The janitor and box shutdown use it to
// reclaim pool buffers held by abandoned requests, which previously
// pinned them until process exit. It reports whether it pre-empted onDone,
// which will then never run; false means the callback has been fired (or
// an earlier Discard took it) and whoever waits for it still must.
func (t *LocalTree) Discard() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	preempted := t.onDone != nil
	t.onDone = nil
	t.closed = true
	t.failLocked(errDiscarded)
	return preempted
}

// takeBatchLocked moves the next due batch out of the buffers, for a
// caller that accounts for self of t.tasks (1 inside a task, else 0), or
// returns nil if none is due. A batch is one kind: batchMin parts are
// waiting, or batchMin runs are — a list due is taken whole. Once inputs
// are closed and nobody else can still add a run, whatever remains of
// both is the final batch. The batch stays in the back-pressure budget
// (held) until merged.
func (t *LocalTree) takeBatchLocked(self int) []*bufpool.Buf {
	if t.err != nil {
		return nil
	}
	var batch []*bufpool.Buf
	switch {
	case len(t.parts) >= t.batchMin:
		batch, t.parts = t.parts, make([]*bufpool.Buf, 0, len(t.parts))
	case len(t.runs) >= t.batchMin:
		batch, t.runs = t.runs, make([]*bufpool.Buf, 0, len(t.runs))
	case t.closed && t.tasks == self && len(t.parts)+len(t.runs) >= 2:
		batch = append(t.parts, t.runs...)
		t.parts, t.runs = nil, nil
	default:
		return nil
	}
	t.held += len(batch)
	return batch
}

// scheduleLocked submits a merge task for the next due batch, if any.
func (t *LocalTree) scheduleLocked() {
	batch := t.takeBatchLocked(0)
	if batch == nil {
		return
	}
	t.tasks++
	if err := t.sched.Submit(t.app, func() { t.mergeTask(batch) }); err != nil {
		t.tasks--
		t.held -= len(batch)
		for _, p := range batch {
			p.Release()
		}
		t.failLocked(err)
	}
}

// mergeTask is the body of one aggregation task: it merges its batch in
// one call and adds the run to the runs. Every batch of a request gets a
// task of its own, so independent batches merge in parallel, pipelined
// with arrival: a first-level batch holds no run, so it never waits for
// another task.
//
// The task runs cut-through (§3.2.1 pipelined aggregation): if its run
// makes another batch due — it completes batchMin runs, or inputs are
// closed and this is the last task — it merges that one too instead of
// sending it round through the scheduler. Associativity and commutativity
// make any grouping give the same result.
func (t *LocalTree) mergeTask(batch []*bufpool.Buf) {
	for {
		run, err := t.merge(batch)
		t.mu.Lock()
		t.merges++
		t.held -= len(batch)
		if err == nil && t.err == nil {
			t.runs = append(t.runs, run) //netagg:owns run
		} else {
			// A failed merge has no run (Release of nil is a no-op); a
			// run that outlived its tree is nobody's input any more.
			run.Release()
			if err != nil {
				t.failLocked(err)
			}
		}
		t.cond.Broadcast() // the batch left the budget
		if batch = t.takeBatchLocked(1); batch == nil {
			break
		}
		t.cutThrough++
		obsCutThrough.Inc()
		t.mu.Unlock()
	}
	t.tasks--
	t.maybeFinishLocked()
	t.mu.Unlock()
}

// merge folds one batch into a single pooled buffer and releases the
// batch: Merge implementations never alias their inputs (the contract
// documented on agg.Aggregator), so the inputs can go back to the pool the
// moment it returns.
func (t *LocalTree) merge(batch []*bufpool.Buf) (*bufpool.Buf, error) {
	views := make([][]byte, len(batch))
	size := 0
	for i, p := range batch {
		views[i] = p.Bytes()
		size += p.Len()
	}
	obsMergedBytes.Add(int64(size))
	// Slack for a count prefix wider than any input's.
	buf := bufpool.Get(size + binary.MaxVarintLen64)
	out, err := t.aggregator.Merge(buf.Bytes()[:0], views)
	for _, p := range batch {
		p.Release()
	}
	if err != nil {
		buf.Release()
		return nil, err
	}
	if len(out) > 0 && &out[0] != &buf.Bytes()[0] {
		// The output outgrew the pooled buffer and append moved it to the
		// heap: carry the grown slice, not a truncated one.
		buf.Release()
		return bufpool.Adopt(out), nil
	}
	buf.SetLen(len(out))
	return buf, nil
}

// failLocked records the first error, releases the buffered parts and
// runs (they can never be merged now; running tasks release their own
// batches) and wakes waiters.
func (t *LocalTree) failLocked(err error) {
	if t.err == nil {
		t.err = err
	}
	for _, p := range t.parts {
		p.Release()
	}
	for _, r := range t.runs {
		r.Release()
	}
	t.parts, t.runs = nil, nil
	t.cond.Broadcast()
	t.maybeFinishLocked()
}

// maybeFinishLocked fires onDone when the tree has fully drained.
func (t *LocalTree) maybeFinishLocked() {
	if t.finished || t.tasks > 0 {
		return
	}
	if t.err == nil && (!t.closed || len(t.parts)+len(t.runs) > 1) {
		return
	}
	t.finished = true
	// At most one input is left, of either kind (an error released both).
	switch {
	case len(t.parts) == 1:
		t.result = t.parts[0]
	case len(t.runs) == 1:
		t.result = t.runs[0]
	}
	t.parts, t.runs = nil, nil
	if t.onDone != nil {
		// Fire on a fresh goroutine so the callback can safely use the
		// scheduler or take locks without risking re-entrancy. The result
		// reference travels with the callback.
		res, err := t.result, t.err
		cb := t.onDone
		t.onDone = nil
		go cb(res, err)
	} else {
		// Discarded tree: nobody is coming for the result.
		t.result.Release()
		t.result = nil
	}
	t.cond.Broadcast()
}

// BytesIn reports external bytes added so far.
func (t *LocalTree) BytesIn() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytesIn
}

// Combines reports the number of Merge calls executed.
func (t *LocalTree) Combines() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.merges
}

// CutThrough reports how many merges ran cut-through: started by a task
// that had just finished one, without a scheduler round-trip between them.
func (t *LocalTree) CutThrough() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cutThrough
}
