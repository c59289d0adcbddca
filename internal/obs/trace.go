package obs

import (
	"fmt"
	"slices"
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
	// Done marks traces the master shim ended, in a result or an error.
	// A trace no master finishes — a box's, in a process of its own — is
	// never done.
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

// Tracer keeps the last n traces begun, finished or not, in one fixed
// ring: a new trace takes the oldest slot (whatever is there, done or not,
// is overwritten), and a trace never moves once it has a slot — Finish
// marks it done where it lies, and a hop that reports after the finish
// finds it through the index like any other. A slot's Spans array outlives
// the traces that pass through it, so a steady stream of requests
// allocates nothing. Recording is mutex-guarded (hops are per-request
// events, orders of magnitude rarer than the per-frame counter path, so a
// lock is fine here).
type Tracer struct {
	mu    sync.Mutex
	ring  []Trace          // slot begun%len(ring) is the next to be taken
	index map[traceKey]int // held trace → its slot
	begun int              // traces begun since the tracer was made
}

// traceKey identifies a trace: wire request ids are unique per
// application only, and two deployments in one process share the tracer.
type traceKey struct {
	app string
	req uint64
}

// NewTracer returns a tracer holding the last n traces begun (n < 1
// defaults to 512).
func NewTracer(n int) *Tracer {
	if n < 1 {
		n = 512
	}
	return &Tracer{ring: make([]Trace, n), index: make(map[traceKey]int, n)}
}

// DefaultTracer is the process-wide tracer every instrumented layer
// records into.
var DefaultTracer = NewTracer(0)

// Record appends one span to the request's trace, beginning the trace on
// first use.
func (t *Tracer) Record(req uint64, app string, s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(req, app, s)
}

// Finish appends the final span and marks the trace done (the master shim
// calls it when a request ends, however it ends). It returns the total
// BytesOut of the trace's spans whose hop matches: the master shim's
// observed per-job aggregation ratio α is its bytes in over the
// "shim.send" bytes out. In a multi-process deployment the shim spans
// live in other processes and the sum is 0, which callers treat as "α
// unobservable".
func (t *Tracer) Finish(req uint64, app string, s Span, hop string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.recordLocked(req, app, s)
	tr.Done = true
	var sum int64
	for i := range tr.Spans {
		if tr.Spans[i].Hop == hop {
			sum += tr.Spans[i].BytesOut
		}
	}
	return sum
}

func (t *Tracer) recordLocked(req uint64, app string, s Span) *Trace {
	key := traceKey{app, req}
	i, ok := t.index[key]
	if !ok {
		i = t.begun % len(t.ring)
		old := &t.ring[i]
		if t.begun >= len(t.ring) {
			delete(t.index, traceKey{old.App, old.Req})
		}
		t.begun++
		t.index[key] = i
		*old = Trace{Req: req, App: app, First: s.Start, Spans: old.Spans[:0]}
	}
	tr := &t.ring[i]
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

// Lookup returns a copy of the application's trace of a request, if the
// tracer still holds it.
func (t *Tracer) Lookup(req uint64, app string) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[traceKey{app, req}]
	if !ok {
		return Trace{}, false
	}
	return copyTrace(&t.ring[i]), true
}

// held returns copies of the held traces whose Done matches, oldest begun
// first.
func (t *Tracer) held(done bool) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.index))
	for b := t.begun - len(t.index); b < t.begun; b++ {
		if tr := &t.ring[b%len(t.ring)]; tr.Done == done {
			out = append(out, copyTrace(tr))
		}
	}
	return out
}

// Recent returns up to n done traces, the newest begun first (n < 1
// returns all).
func (t *Tracer) Recent(n int) []Trace {
	out := t.held(true)
	slices.Reverse(out)
	if n >= 1 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Active returns a copy of every held trace not done — in flight, or
// recorded in a process whose master never finishes it (an aggbox) —
// oldest first.
func (t *Tracer) Active() []Trace { return t.held(false) }

// TraceLog renders every trace the tracer holds (active then completed,
// oldest first) as an indented text log, one line per span with
// relative-to-trace-start timing — the quickest way to see where a slow
// request spent its time.
func (t *Tracer) TraceLog() string {
	var b strings.Builder
	for _, tr := range append(t.held(false), t.held(true)...) {
		writeTrace(&b, tr)
	}
	return b.String()
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
