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

// fanIn is how many waiting parts make a merge batch: enough that each
// byte is merged about twice on its way through a box, few enough that
// several batches of one request run as parallel tasks while it streams in.
const fanIn = 16

// LocalTree is the in-box aggregation structure for one request (§3.2.1
// "Local aggregation trees"): partial results stream in from the network
// layer, batches of them are merged by aggregation tasks running in
// parallel on the scheduler, and the merged runs go back among the parts
// until a single final result remains. Because the aggregation function is
// associative and commutative, greedily merging whatever parts are
// available executes the same computation as a static tree with maximal
// pipelining. A bounded pending-part buffer provides back-pressure: Add
// blocks when the tree cannot keep up, which in turn stops the network
// reader and lets TCP throttle the sender ("a back-pressure mechanism
// ensures that the workers reduce the rate at which they produce partial
// results").
type LocalTree struct {
	app        string
	aggregator agg.Aggregator
	sched      *Scheduler
	maxPending int
	// batchMin is how many buffered parts make a batch due:
	// min(fanIn, maxPending/2). The cap keeps it inside the back-pressure
	// budget, which it must be or Add would block with nothing to merge.
	batchMin int

	mu       sync.Mutex
	cond     *sync.Cond
	parts    []*bufpool.Buf // buffered, not yet in a task's batch
	held     int            // parts in the batches of queued or running tasks
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
	// The budget counts buffered parts and the batch of every merge still
	// queued or running, so a slow aggregator applies back-pressure instead
	// of letting the scheduler queue grow without bound.
	for len(t.parts)+t.held >= t.maxPending && t.err == nil && !t.closed {
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

// dueLocked reports whether the buffered parts make a batch for a caller
// that accounts for self of t.tasks (1 inside a task, else 0): batchMin
// are waiting, or inputs are closed and nobody else can still add a run —
// then whatever remains is the final batch.
func (t *LocalTree) dueLocked(self int) bool {
	n := len(t.parts)
	return t.err == nil && n >= 2 && (n >= t.batchMin || (t.closed && t.tasks == self))
}

// takeBatchLocked moves every buffered part into a batch for one merge.
// The parts stay in the back-pressure budget (held) until merged.
func (t *LocalTree) takeBatchLocked() []*bufpool.Buf {
	batch := t.parts
	t.parts = make([]*bufpool.Buf, 0, len(batch))
	t.held += len(batch)
	return batch
}

// scheduleLocked submits a merge task for the buffered parts if they make
// a batch.
func (t *LocalTree) scheduleLocked() {
	if !t.dueLocked(0) {
		return
	}
	batch := t.takeBatchLocked()
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
// one call and puts the run back among the parts. Every batch of a request
// gets a task of its own, so independent batches merge in parallel,
// pipelined with arrival.
//
// The task runs cut-through (§3.2.1 pipelined aggregation): if its run
// makes another batch due — enough parts were already waiting, or inputs
// are closed and this is the last task — it merges that one too instead
// of sending it round through the scheduler. Associativity and
// commutativity make any grouping equivalent to a static tree.
func (t *LocalTree) mergeTask(batch []*bufpool.Buf) {
	for {
		run, err := t.merge(batch)
		t.mu.Lock()
		t.merges++
		t.held -= len(batch)
		if err == nil && t.err == nil {
			t.parts = append(t.parts, run) //netagg:owns run
		} else {
			// A failed merge has no run (Release of nil is a no-op); a
			// run that outlived its tree is nobody's input any more.
			run.Release()
			if err != nil {
				t.failLocked(err)
			}
		}
		t.cond.Broadcast() // the batch left the budget
		if !t.dueLocked(1) {
			break
		}
		batch = t.takeBatchLocked()
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
	size := binary.MaxVarintLen64 // slack for a count prefix wider than any input's
	for i, p := range batch {
		views[i] = p.Bytes()
		size += p.Len()
	}
	buf := bufpool.Get(size)
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

// failLocked records the first error, releases the buffered parts (they
// can never be merged now; running tasks release their own batches) and
// wakes waiters.
func (t *LocalTree) failLocked(err error) {
	if t.err == nil {
		t.err = err
	}
	for _, p := range t.parts {
		p.Release()
	}
	t.parts = nil
	t.cond.Broadcast()
	t.maybeFinishLocked()
}

// maybeFinishLocked fires onDone when the tree has fully drained.
func (t *LocalTree) maybeFinishLocked() {
	if t.finished || t.tasks > 0 {
		return
	}
	if t.err == nil && (!t.closed || len(t.parts) > 1) {
		return
	}
	t.finished = true
	if len(t.parts) == 1 {
		t.result = t.parts[0]
	}
	t.parts = nil
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
