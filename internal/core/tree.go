package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/wire"
)

// errDiscarded marks a tree torn down by the janitor or box shutdown;
// it never reaches a master because Discard detaches onDone first.
var errDiscarded = errors.New("core: aggregation tree discarded")

// appPanic is the error a panic in the application's aggregation code
// becomes. The paper leaves "isolating faulty or malicious aggregation
// tasks" to future work (§3.2.1); here a crash fails its request instead
// of the box, and the box quarantines an application that keeps crashing.
type appPanic struct {
	app   string
	value any
}

// Error implements error.
func (p *appPanic) Error() string {
	return fmt.Sprintf("core: aggregation function %q panicked: %v", p.app, p.value)
}

// batchBytes is how many bytes of waiting parts make them a merge batch.
// It is well above a whole job of every workload here (a sort_concat job
// is 1.3 MB), so a request that fits is one merge, and each of its bytes
// is merged once; a larger request merges batches of this size in
// parallel while it streams in. Runs wait until they hold a frame's
// worth, wire.MaxPayload — an α = 1 request that can be emitted at all
// then merges each byte at most twice.
const batchBytes = 4 << 20

// maxHeldBytes bounds the bytes a tree holds — parts and runs, waiting
// or in a batch — for a request whose lone run fits a frame:
// while no merge runs, parts hold less than batchBytes plus a part, runs
// at most a frame, and a part is at most a frame (the proof is on Add).
const maxHeldBytes = batchBytes + 3*wire.MaxPayload

// listCap is the capacity a new parts list starts with. It does not grow
// with the count budget: a longer list grows by append.
const listCap = 16

// LocalTree is the in-box aggregation structure for one request (§3.2.1
// "Local aggregation trees"): partial results stream in from the network
// layer, batches of them are merged by aggregation tasks running in
// parallel on the scheduler, and the merged runs wait in a list of their
// own, batched among themselves, until a single final result remains.
// Because the aggregation function is associative and commutative, any
// grouping of the merges yields the same result as a static tree; the
// cost is the grouping's, which is why a run never rides in a batch of
// parts (that would make the tree a left fold, re-merging every earlier
// byte with each batch), and why a batch is made by the bytes waiting: a
// request that fits one batch is merged once. The tree knows nothing of a
// codec's order: parts that follow one another, a sorted source cut into
// chunks, are the merge's to read one after another.
//
// A bounded buffer provides back-pressure: Add blocks when the tree
// cannot keep up, which in turn stops the network reader and lets TCP
// throttle the sender ("a back-pressure mechanism ensures that the
// workers reduce the rate at which they produce partial results").
type LocalTree struct {
	app        string
	aggregator agg.Aggregator
	sched      *Scheduler
	maxPending int
	// batchMin is how many buffered parts, or buffered runs, make a batch
	// due whatever their bytes: maxPending/8, at least 2. A backlogged
	// tree of small parts then holds up to eight batches, which merge in
	// parallel, and both lists together fit the count budget while
	// neither is due: 2(batchMin−1) ≤ maxPending−2.
	batchMin int

	mu        sync.Mutex
	cond      *sync.Cond
	parts     []*bufpool.Buf // external parts, not yet in a task's batch
	runs      []*bufpool.Buf // outputs of the tree's own merges, not yet in a batch
	partBytes int            // bytes of parts
	runBytes  int            // bytes of runs
	held      int            // inputs in the batches of queued or running tasks
	heldBytes int            // bytes of those batches
	tasks     int            // merge tasks queued or running
	closed    bool
	finished  bool
	err       error
	onDone    func(*bufpool.Buf, error)

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
// Release it. maxPending bounds the inputs the tree holds — parts and
// runs, buffered or being merged; values < 4 are raised to 4 so a
// merge can always be scheduled. maxHeldBytes bounds their bytes.
func NewLocalTree(sched *Scheduler, app string, aggregator agg.Aggregator, maxPending int, onDone func(*bufpool.Buf, error)) *LocalTree {
	if maxPending < 4 {
		maxPending = 4
	}
	t := &LocalTree{
		app:        app,
		aggregator: aggregator,
		sched:      sched,
		maxPending: maxPending,
		batchMin:   max(2, maxPending/8),
		onDone:     onDone,
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Add feeds one partial result. The tree takes ownership of part's
// buffer reference in every outcome — including rejection — so callers
// hand their reference over and walk away. It blocks while the tree's
// buffer is full (back-pressure) and returns false if the tree already
// failed or was closed, or if the part failed it.
func (t *LocalTree) Add(part *bufpool.Buf) bool {
	n := part.Len()
	t.mu.Lock()
	// Add waits while the part would take the tree past a budget — the
	// inputs or the bytes of what waits and of every batch still queued
	// or running, so a slow aggregator applies back-pressure instead of
	// letting the scheduler queue grow — but only while a task is queued
	// or running: only a merge frees room, and a due batch always has a
	// task. So Add never waits while no batch is due or running, and the
	// budgets still hold then, because neither list is due: each holds
	// under batchMin inputs; parts hold under batchBytes, or one part;
	// runs under a frame, or one run; and the part is at most a frame.
	// For a request whose lone run fits a frame that is under
	// maxHeldBytes.
	for t.tasks > 0 && (len(t.parts)+len(t.runs)+t.held >= t.maxPending || t.partBytes+t.runBytes+t.heldBytes+n > maxHeldBytes) && t.err == nil && !t.closed {
		t.cond.Wait()
	}
	if t.err != nil || t.closed {
		t.mu.Unlock()
		part.Release()
		return false
	}
	t.bytesIn += int64(n)
	t.partBytes += n
	if t.parts == nil {
		t.parts = make([]*bufpool.Buf, 0, listCap)
	}
	t.parts = append(t.parts, part)
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

// settledLocked reports whether what waits needs no further merge: at
// most one input.
func (t *LocalTree) settledLocked() bool {
	return len(t.parts)+len(t.runs) <= 1
}

// takeBatchLocked moves the next due batch and its bytes out of the
// buffers, for a caller that accounts for self of t.tasks (1 inside a
// task, else 0), or returns nil if none is due. A batch is one kind: a
// list is due once it holds two inputs and either batchMin of them or
// its bytes' threshold — batchBytes for parts, a frame for runs — and a
// list due is taken whole. Once inputs are closed and nobody else can
// still add a run, whatever remains of both is the final batch. The
// batch stays in the back-pressure budget (held, heldBytes) until
// merged.
func (t *LocalTree) takeBatchLocked(self int) (batch []*bufpool.Buf, size int) {
	if t.err != nil {
		return nil, 0
	}
	switch {
	case t.due(t.parts, t.partBytes, batchBytes):
		batch, size = t.parts, t.partBytes
		t.parts, t.partBytes = nil, 0
	case t.due(t.runs, t.runBytes, wire.MaxPayload):
		batch, size = t.runs, t.runBytes
		t.runs, t.runBytes = nil, 0
	case t.closed && t.tasks == self && !t.settledLocked():
		batch, size = append(t.parts, t.runs...), t.partBytes+t.runBytes
		t.parts, t.runs, t.partBytes, t.runBytes = nil, nil, 0, 0
	default:
		return nil, 0
	}
	t.held += len(batch)
	t.heldBytes += size
	return batch, size
}

// due reports whether a list of inputs, size bytes together, is a batch
// under a threshold of that many bytes.
func (t *LocalTree) due(list []*bufpool.Buf, size, threshold int) bool {
	return len(list) >= 2 && (size >= threshold || len(list) >= t.batchMin)
}

// scheduleLocked submits a merge task for the next due batch, if any.
func (t *LocalTree) scheduleLocked() {
	batch, size := t.takeBatchLocked(0)
	if batch == nil {
		return
	}
	t.tasks++
	if err := t.sched.Submit(t.app, func() { t.mergeTask(batch, size) }); err != nil {
		t.tasks--
		t.held -= len(batch)
		t.heldBytes -= size
		for _, in := range batch {
			in.Release()
		}
		t.failLocked(err)
	}
}

// mergeTask is the body of one aggregation task: it merges its batch of
// size bytes in one call and adds the run to the runs. Every batch of a
// request gets a task of its own, so independent batches merge in
// parallel, pipelined with arrival: a first-level batch holds no run, so
// it never waits for another task.
//
// The task runs cut-through (§3.2.1 pipelined aggregation): if its run
// makes another batch due — the runs reach their threshold, or inputs are
// closed and this is the last task — it merges that one too instead of
// sending it round through the scheduler. Associativity and commutativity
// make any grouping give the same result.
func (t *LocalTree) mergeTask(batch []*bufpool.Buf, size int) {
	for {
		run, err := t.merge(batch)
		t.mu.Lock()
		t.merges++
		t.held -= len(batch)
		t.heldBytes -= size
		if err == nil && t.err == nil {
			t.runs = append(t.runs, run)
			t.runBytes += run.Len()
		} else {
			// A failed merge has no run (Release of nil is a no-op); a
			// run that outlived its tree is nobody's input any more.
			run.Release()
			if err != nil {
				t.failLocked(err)
			}
		}
		t.cond.Broadcast() // the batch left the budget
		if batch, size = t.takeBatchLocked(1); batch == nil {
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
// batch. Merge never aliases its inputs (the contract documented on
// agg.Aggregator), so they can go back to the pool the moment it returns.
func (t *LocalTree) merge(batch []*bufpool.Buf) (*bufpool.Buf, error) {
	defer func() {
		for _, in := range batch {
			in.Release()
		}
	}()
	views := make([][]byte, len(batch))
	size := 0
	for i, in := range batch {
		views[i] = in.Bytes()
		size += len(views[i])
	}
	obsMergedBytes.Add(int64(size))
	// Slack for a count prefix wider than any input's.
	buf := bufpool.Get(size + binary.MaxVarintLen64)
	out, err := t.applyMerge(buf.Bytes()[:0], views)
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

// applyMerge is the application's Merge, the tree's only call into
// application code: a panic in it becomes the request's error.
func (t *LocalTree) applyMerge(dst []byte, parts [][]byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &appPanic{app: t.app, value: r}
		}
	}()
	return t.aggregator.Merge(dst, parts)
}

// failLocked records the first error, releases the buffered parts and
// runs (they can never be merged now; running tasks release their own
// batches) and wakes waiters.
func (t *LocalTree) failLocked(err error) {
	if t.err == nil {
		t.err = err
	}
	for _, in := range t.parts {
		in.Release()
	}
	for _, in := range t.runs {
		in.Release()
	}
	t.parts, t.runs, t.partBytes, t.runBytes = nil, nil, 0, 0
	t.cond.Broadcast()
	t.maybeFinishLocked()
}

// maybeFinishLocked fires onDone when the tree has fully drained.
func (t *LocalTree) maybeFinishLocked() {
	if t.finished || t.tasks > 0 {
		return
	}
	if t.err == nil && (!t.closed || !t.settledLocked()) {
		return
	}
	t.finished = true
	// At most one input is left, a part or a run (an error released all).
	var result *bufpool.Buf
	switch {
	case len(t.parts) == 1:
		result = t.parts[0]
	case len(t.runs) == 1:
		result = t.runs[0]
	}
	t.parts, t.runs, t.partBytes, t.runBytes = nil, nil, 0, 0
	if t.onDone != nil {
		// Fire on a fresh goroutine so the callback can safely use the
		// scheduler or take locks without risking re-entrancy. The result
		// reference travels with the callback.
		cb, err := t.onDone, t.err
		t.onDone = nil
		go cb(result, err)
	} else {
		// Discarded tree: nobody is coming for the result.
		result.Release()
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
