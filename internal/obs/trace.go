package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one hop of an aggregation request through the fabric: the
// worker shim's send, one agg box's receive→aggregate→emit, or the
// master shim's collection. Timestamps are unix nanoseconds so spans
// recorded by different components order globally within the process.
type Span struct {
	// Hop names the fabric layer: "shim.send", "box", "master".
	Hop string `json:"hop"`
	// Node identifies the component ("r0-h1", "box:4294967296",
	// "master").
	Node string `json:"node"`
	// Start is when the hop first touched the request (first frame in,
	// send started, request submitted).
	Start int64 `json:"start_ns"`
	// Agg is when aggregation finished on this hop (boxes only; zero
	// elsewhere).
	Agg int64 `json:"agg_ns,omitempty"`
	// End is when the hop emitted its output (send complete, result
	// forwarded, request completed).
	End int64 `json:"end_ns"`
	// Parts counts the partial results this hop consumed (fan-in) or
	// produced.
	Parts int `json:"parts"`
	// BytesIn and BytesOut measure the hop's traffic reduction: their
	// ratio is the observed aggregation ratio α at this hop (§4.1).
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"` // BytesOut the hop emitted downstream.
	// Err is why the hop ended without an output: the request's error at
	// the master, "cancelled" or "idle" at a box that dropped its state.
	Err string `json:"err,omitempty"`
}

// Duration returns the hop's wall-clock time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Trace collects the spans of one wire-level aggregation request (one
// (request, tree, attempt) triple, see cluster.WireReq). Spans arrive
// in completion order, not tree order; Sorted returns them by start
// time.
type Trace struct {
	// Req is the wire request id the spans were recorded under.
	Req uint64 `json:"req"`
	// App names the application whose aggregation function ran.
	App string `json:"app"`
	// First is the earliest span start (unix nanoseconds).
	First int64 `json:"first_ns"`
	// Done marks traces the master shim ended, in a result or an error;
	// traces evicted from the active set by capacity pressure stay
	// not-done.
	Done bool `json:"done"`
	// Spans are the recorded hops, in arrival order, capped at
	// maxSpansPerTrace; Dropped counts spans discarded past the cap
	// (only reachable when wire request ids are recycled).
	Spans   []Span `json:"spans"`
	Dropped int    `json:"dropped,omitempty"` // Dropped spans past the cap.
}

// maxSpansPerTrace bounds one trace's memory. A legitimate request has
// one span per worker plus one per on-path box plus the master — far
// below this — so hitting the cap means request ids are being reused
// across jobs and the tail is noise anyway.
const maxSpansPerTrace = 512

// Sorted returns the spans ordered by start time (ties: by hop then
// node, so the order is deterministic).
func (t Trace) Sorted() []Span {
	out := append([]Span(nil), t.Spans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		return a.Node < b.Node
	})
	return out
}

// Tracer keeps a bounded set of active traces plus a ring buffer of
// recently completed ones. Recording is mutex-guarded (hops are
// per-request events, orders of magnitude rarer than the per-frame
// counter path, so a lock is fine here). When the active set is full
// the oldest active trace is evicted into the ring, so an aggbox whose
// master never reports completion still retains its recent history.
type Tracer struct {
	mu        sync.Mutex
	maxActive int
	ringSize  int
	active    map[traceKey]*Trace
	order     []traceKey // active trace keys, oldest first
	ring      []*Trace   // completed/evicted traces, oldest first
}

// traceKey identifies a trace: wire request ids are unique per
// application only, and two deployments in one process share the tracer.
type traceKey struct {
	app string
	req uint64
}

// NewTracer returns a tracer bounding the active set and completed ring
// to the given sizes (values < 1 default to 256).
func NewTracer(maxActive, ring int) *Tracer {
	if maxActive < 1 {
		maxActive = 256
	}
	if ring < 1 {
		ring = 256
	}
	return &Tracer{
		maxActive: maxActive,
		ringSize:  ring,
		active:    make(map[traceKey]*Trace),
	}
}

// DefaultTracer is the process-wide tracer every instrumented layer
// records into.
var DefaultTracer = NewTracer(256, 256)

// Record appends one span to the request's trace, creating the trace on
// first use.
func (t *Tracer) Record(req uint64, app string, s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(req, app, s)
}

// Finish appends the final span and moves the trace to the completed
// ring (the master shim calls it when a request ends, however it ends).
func (t *Tracer) Finish(req uint64, app string, s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.recordLocked(req, app, s)
	tr.Done = true
	key := traceKey{app, req}
	if _, wasActive := t.active[key]; !wasActive {
		return // recordLocked merged into a ring entry; it is already there
	}
	delete(t.active, key)
	for i, k := range t.order {
		if k == key {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	t.pushRingLocked(tr)
}

func (t *Tracer) recordLocked(req uint64, app string, s Span) *Trace {
	key := traceKey{app, req}
	tr, ok := t.active[key]
	if !ok {
		// A hop can report after the master already finished the trace
		// (boxes record their span once the emit completes, and the
		// master may win that race): merge into the completed ring
		// entry instead of opening a spurious new trace.
		tr, ok = t.ringLocked(key)
	}
	if !ok {
		if len(t.active) >= t.maxActive {
			oldest := t.order[0]
			t.order = t.order[1:]
			t.pushRingLocked(t.active[oldest])
			delete(t.active, oldest)
		}
		tr = &Trace{Req: req, App: app, First: s.Start}
		t.active[key] = tr
		t.order = append(t.order, key)
	}
	if tr.First == 0 || (s.Start != 0 && s.Start < tr.First) {
		tr.First = s.Start
	}
	if len(tr.Spans) >= maxSpansPerTrace {
		tr.Dropped++
		return tr
	}
	tr.Spans = append(tr.Spans, s)
	return tr
}

// copyTrace deep-copies a trace so callers can read it after the lock
// is released while recording goroutines keep appending spans.
func copyTrace(tr *Trace) Trace {
	out := *tr
	out.Spans = append([]Span(nil), tr.Spans...)
	return out
}

func (t *Tracer) pushRingLocked(tr *Trace) {
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.ringSize {
		t.ring = append(t.ring[:0], t.ring[len(t.ring)-t.ringSize:]...)
	}
}

// ringLocked finds a trace in the completed ring (newest match wins).
func (t *Tracer) ringLocked(key traceKey) (*Trace, bool) {
	for i := len(t.ring) - 1; i >= 0; i-- {
		if tr := t.ring[i]; tr.Req == key.req && tr.App == key.app {
			return tr, true
		}
	}
	return nil, false
}

// Lookup returns a copy of the application's trace of a request,
// searching the active set first and then the completed ring.
func (t *Tracer) Lookup(req uint64, app string) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := traceKey{app, req}
	tr, ok := t.active[key]
	if !ok {
		tr, ok = t.ringLocked(key)
	}
	if !ok {
		return Trace{}, false
	}
	return copyTrace(tr), true
}

// Recent returns up to n completed traces, newest first (n < 1 returns
// all).
func (t *Tracer) Recent(n int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 || n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]Trace, 0, n)
	for i := len(t.ring) - 1; i >= len(t.ring)-n; i-- {
		out = append(out, copyTrace(t.ring[i]))
	}
	return out
}

// Active returns a copy of every in-flight (not yet completed) trace,
// oldest first.
func (t *Tracer) Active() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, copyTrace(t.active[k]))
	}
	return out
}

// SumBytesOut totals the BytesOut of the request's spans whose hop
// matches. The master shim uses it to compute the observed per-job
// aggregation ratio α = master bytes in / shim bytes out; in a
// multi-process deployment the shim spans live in other processes and
// the sum is 0, which callers treat as "α unobservable".
func (t *Tracer) SumBytesOut(req uint64, app, hop string) int64 {
	tr, ok := t.Lookup(req, app)
	if !ok {
		return 0
	}
	var sum int64
	for _, s := range tr.Spans {
		if s.Hop == hop {
			sum += s.BytesOut
		}
	}
	return sum
}

// TraceLog renders every trace the tracer holds (active then completed,
// oldest first) as an indented text log, one line per span with
// relative-to-trace-start timing — the quickest way to see where a slow
// request spent its time.
func (t *Tracer) TraceLog() string {
	var b strings.Builder
	for _, tr := range append(t.Active(), reverse(t.Recent(0))...) {
		writeTrace(&b, tr)
	}
	return b.String()
}

func reverse(ts []Trace) []Trace {
	for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
		ts[i], ts[j] = ts[j], ts[i]
	}
	return ts
}

func writeTrace(b *strings.Builder, tr Trace) {
	state := "active"
	if tr.Done {
		state = "done"
	}
	fmt.Fprintf(b, "trace req=%d app=%s spans=%d %s\n", tr.Req, tr.App, len(tr.Spans), state)
	for _, s := range tr.Sorted() {
		rel := time.Duration(s.Start - tr.First).Round(time.Microsecond)
		fmt.Fprintf(b, "  +%-12v %-10s %-16s parts=%-4d in=%-8d out=%-8d took=%v",
			rel, s.Hop, s.Node, s.Parts, s.BytesIn, s.BytesOut,
			s.Duration().Round(time.Microsecond))
		if s.Err != "" {
			fmt.Fprintf(b, " err=%q", s.Err)
		}
		b.WriteByte('\n')
	}
}
