package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netagg/internal/testutil"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("x.depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Handles are stable: the same name returns the same metric.
	if r.Counter("x.count") != c || r.Gauge("x.depth") != g {
		t.Fatal("registry handles must be stable per name")
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.lat")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Power-of-two buckets: a quantile estimate is the bucket upper
	// bound, so it is ≥ the true value and < 2× it.
	if s.P50 < 500 || s.P50 >= 1024 {
		t.Fatalf("p50 = %d, want within [500, 1024)", s.P50)
	}
	if s.P99 < 990 || s.P99 >= 2048 {
		t.Fatalf("p99 = %d, want within [990, 2048)", s.P99)
	}
	if m := s.Mean(); math.Abs(m-500.5) > 0.01 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.lat")
	if s := h.snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(-5) // clamped to the 0 bucket, not a panic
	h.Observe(0)
	s := h.snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("min/max/sum = %d/%d/%d, want 0/0/0 (negatives clamp)", s.Min, s.Max, s.Sum)
	}
}

// TestRegistryConcurrency hammers one registry from parallel writers
// while readers snapshot it; the -race build is the assertion (plus a
// final exact count: increments must not be lost).
func TestRegistryConcurrency(t *testing.T) {
	defer testutil.CheckLeaks(t)
	r := NewRegistry()
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			_ = r.Table().String()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c.shared")
			g := r.Gauge("g.shared")
			h := r.Histogram("h.shared")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
				// Lookups race against creation too.
				r.Counter(fmt.Sprintf("c.%d", w)).Inc()
			}
		}(w)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Writers finish fast; the reader needs the stop signal.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case <-wgDone:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrency test wedged")
	}
	s := r.Snapshot()
	if s.Counters["c.shared"] != writers*perWriter {
		t.Fatalf("lost counter increments: %d, want %d", s.Counters["c.shared"], writers*perWriter)
	}
	if s.Gauges["g.shared"] != writers*perWriter {
		t.Fatalf("lost gauge adds: %d", s.Gauges["g.shared"])
	}
	if s.Histograms["h.shared"].Count != writers*perWriter {
		t.Fatalf("lost observations: %d", s.Histograms["h.shared"].Count)
	}
}

// TestHotPathAllocationFree is the 0 allocs/op regression the package
// doc promises (the benchmarks prove it too, but this fails `go test`
// rather than needing a benchmark run).
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.c")
	g := r.Gauge("x.g")
	h := r.Histogram("x.h")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("hot path allocates %v allocs/op, want 0", n)
	}
}

func TestJSONExportDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Histogram("c.three").Observe(8)
	var first strings.Builder
	if err := r.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := r.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("JSON export must be deterministic")
	}
	var parsed Snapshot
	if err := json.Unmarshal([]byte(first.String()), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if parsed.Counters["a.one"] != 1 || parsed.Counters["b.two"] != 2 {
		t.Fatalf("round trip lost counters: %+v", parsed.Counters)
	}
}

func TestTableRendersAllKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("a.depth").Set(2)
	r.Histogram("a.lat").Observe(100)
	out := r.Table().String()
	for _, want := range []string{"a.count", "a.depth", "a.lat", "counter", "gauge", "histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTracerRecordFinishLookup(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(10, "wc", Span{Hop: "shim.send", Node: "w0", Start: 100, End: 200, BytesOut: 50})
	tr.Record(10, "wc", Span{Hop: "box", Node: "box:1", Start: 150, Agg: 180, End: 220})
	got, ok := tr.Lookup(10, "wc")
	if !ok || len(got.Spans) != 2 || got.Done {
		t.Fatalf("active lookup = %+v, %v", got, ok)
	}
	if got.First != 100 {
		t.Fatalf("First = %d, want 100", got.First)
	}
	if len(tr.Active()) != 1 {
		t.Fatal("want one active trace")
	}
	tr.Finish(10, "wc", Span{Hop: "master", Node: "m", Start: 90, End: 300}, "shim.send")
	if len(tr.Active()) != 0 {
		t.Fatal("finish must clear the active set")
	}
	got, ok = tr.Lookup(10, "wc")
	if !ok || !got.Done || len(got.Spans) != 3 {
		t.Fatalf("ring lookup = %+v, %v", got, ok)
	}
	// First tracks the earliest span start even when it arrives last.
	if got.First != 90 {
		t.Fatalf("First = %d, want 90", got.First)
	}
	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Req != 10 {
		t.Fatalf("recent = %+v", recent)
	}
}

// TestTracerKeyedByAppAndRequest pins the trace key: wire request ids are
// unique per application only, so two applications (or two deployments in
// one process) using the same id keep separate traces, active and in the
// ring, and an errored ending is readable from the span.
func TestTracerKeyedByAppAndRequest(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(7, "wc", Span{Hop: "shim.send", Node: "w0", Start: 1, BytesOut: 10})
	tr.Record(7, "topk", Span{Hop: "shim.send", Node: "w0", Start: 2, BytesOut: 99})
	if n := len(tr.Active()); n != 2 {
		t.Fatalf("%d active traces for two applications sharing a request id, want 2", n)
	}
	if sum := tr.Finish(7, "wc", Span{Hop: "master", Start: 1, End: 5, Err: "boom"}, "shim.send"); sum != 10 {
		t.Fatalf("Finish(wc) = %d shim.send bytes, want 10: the other application's 99 are not its own", sum)
	}
	wc, _ := tr.Lookup(7, "wc")
	topk, _ := tr.Lookup(7, "topk")
	if !wc.Done || len(wc.Spans) != 2 || topk.Done || len(topk.Spans) != 1 {
		t.Fatalf("wc = %+v, topk = %+v: finishing one application's trace touched the other's", wc, topk)
	}
	// A late span merges into its own application's ring entry.
	tr.Finish(7, "topk", Span{Hop: "master", Start: 2, End: 6}, "shim.send")
	tr.Record(7, "wc", Span{Hop: "box", Start: 3, Err: "cancelled"})
	if wc, _ = tr.Lookup(7, "wc"); len(wc.Spans) != 3 {
		t.Fatalf("late wc span landed elsewhere: %+v", wc)
	}
	if log := tr.TraceLog(); !strings.Contains(log, `err="boom"`) || !strings.Contains(log, `err="cancelled"`) {
		t.Fatalf("trace log does not show the error endings:\n%s", log)
	}
}

// TestTracerEvictionBounds pins the one capacity: the tracer holds the
// last n traces begun, a finished and an unfinished one are overwritten
// alike, in the order they began, and a span for an overwritten trace
// begins a new one.
func TestTracerEvictionBounds(t *testing.T) {
	tr := NewTracer(3)
	tr.Record(1, "wc", Span{Hop: "box", Start: 1})
	tr.Finish(2, "wc", Span{Hop: "master", Start: 2}, "")
	tr.Record(3, "wc", Span{Hop: "box", Start: 3})
	tr.Finish(1, "wc", Span{Hop: "master", Start: 4}, "") // finishing moves nothing: 1 is still the oldest
	reqs := func(ts []Trace) (out []uint64) {
		for _, tr := range ts {
			out = append(out, tr.Req)
		}
		return out
	}
	if a, r := reqs(tr.Active()), reqs(tr.Recent(0)); !slices.Equal(a, []uint64{3}) || !slices.Equal(r, []uint64{2, 1}) {
		t.Fatalf("active = %v, recent = %v; want [3] and [2 1] (newest begun first)", a, r)
	}
	if r := reqs(tr.Recent(1)); !slices.Equal(r, []uint64{2}) {
		t.Fatalf("Recent(1) = %v, want [2]", r)
	}
	tr.Record(4, "wc", Span{Hop: "box", Start: 5}) // overwrites 1, done
	tr.Record(5, "wc", Span{Hop: "box", Start: 6}) // overwrites 2, done
	if _, ok := tr.Lookup(1, "wc"); ok {
		t.Fatal("trace 1 outlived three newer traces")
	}
	if _, ok := tr.Lookup(3, "wc"); !ok {
		t.Fatal("trace 3 overwritten before its turn")
	}
	tr.Record(6, "wc", Span{Hop: "box", Start: 7}) // overwrites 3, never finished
	if _, ok := tr.Lookup(3, "wc"); ok {
		t.Fatal("an unfinished trace must be overwritten in its turn too")
	}
	// A span for an overwritten trace begins a new one, in 4's slot, with
	// none of 4's spans.
	tr.Record(3, "wc", Span{Hop: "box", Start: 8})
	if got, ok := tr.Lookup(3, "wc"); !ok || len(got.Spans) != 1 || got.First != 8 || got.Done {
		t.Fatalf("late span for an overwritten trace = %+v, %v; want a fresh one-span trace", got, ok)
	}
	if a := reqs(tr.Active()); !slices.Equal(a, []uint64{5, 6, 3}) || len(tr.Recent(0)) != 0 {
		t.Fatalf("active = %v, recent = %v; want [5 6 3] and none", a, reqs(tr.Recent(0)))
	}
}

// TestTracerSortedAndSumBytes pins Sorted's order and the sum Finish
// returns: the named hop's BytesOut and no other's.
func TestTracerSortedAndSumBytes(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(1, "wc", Span{Hop: "box", Node: "b", Start: 300, End: 400, BytesOut: 7})
	tr.Record(1, "wc", Span{Hop: "shim.send", Node: "w1", Start: 100, End: 150, BytesOut: 30})
	tr.Record(1, "wc", Span{Hop: "shim.send", Node: "w0", Start: 100, End: 160, BytesOut: 20})
	got, _ := tr.Lookup(1, "wc")
	sorted := got.Sorted()
	if sorted[0].Node != "w0" || sorted[1].Node != "w1" || sorted[2].Hop != "box" {
		t.Fatalf("sorted order wrong: %+v", sorted)
	}
	if sum := tr.Finish(1, "wc", Span{Hop: "master", Start: 90, End: 500}, "shim.send"); sum != 50 {
		t.Fatalf("Finish = %d shim.send bytes, want 50", sum)
	}
	if sum := tr.Finish(99, "wc", Span{Hop: "master", Start: 90, End: 500}, "shim.send"); sum != 0 {
		t.Fatalf("Finish of a request no shim recorded = %d, want 0", sum)
	}
}

// TestTracerJobAllocationFree: once the ring has wrapped, a job's spans
// go into a slot (and a span array) an older trace left behind, so a
// steady stream of requests costs the allocator nothing.
func TestTracerJobAllocationFree(t *testing.T) {
	tr := NewTracer(64)
	req := uint64(0)
	for ; req < 128; req++ {
		traceJob(tr, req)
	}
	if n := testing.AllocsPerRun(1000, func() {
		traceJob(tr, req)
		req++
	}); n != 0 {
		t.Fatalf("a traced job allocates %v times, want 0", n)
	}
}

func TestTracerConcurrency(t *testing.T) {
	defer testutil.CheckLeaks(t)
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				req := uint64(w*1000 + i)
				tr.Record(req, "wc", Span{Hop: "box", Start: int64(i)})
				if i%8 == 0 {
					tr.Finish(req, "wc", Span{Hop: "master", Start: int64(i)}, "shim.send")
				}
				_, _ = tr.Lookup(req, "wc")
				if i%64 == 0 {
					_ = tr.TraceLog()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("tracer concurrency test wedged")
	}
}

func TestTraceLogFormat(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now().UnixNano()
	tr.Record(42, "wc", Span{Hop: "shim.send", Node: "w0", Start: base, End: base + 1000, Parts: 2, BytesOut: 64})
	tr.Finish(42, "wc", Span{Hop: "master", Node: "m", Start: base, End: base + 5000, Parts: 1, BytesIn: 16}, "shim.send")
	out := tr.TraceLog()
	for _, want := range []string{"req=42", "app=wc", "done", "shim.send", "master", "parts=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace log missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	defer testutil.CheckLeaks(t)
	reg := NewRegistry()
	reg.Counter("h.test").Add(7)
	tr := NewTracer(8)
	tr.Finish(3, "wc", Span{Hop: "master", Node: "m", Start: 1, End: 2}, "shim.send")
	health := func() map[string]interface{} {
		return map[string]interface{}{"boxes": 3}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, stop, err := Serve(ctx, "127.0.0.1:0", Handler(reg, tr, health))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/netagg/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap.Counters["h.test"] != 7 {
		t.Fatalf("metrics lost counter: %+v", snap.Counters)
	}
	if _, body = get("/debug/netagg/metrics?format=table"); !strings.Contains(body, "h.test") {
		t.Fatalf("table export missing metric:\n%s", body)
	}

	code, body = get("/debug/netagg/traces")
	if code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	var traces struct {
		Active []Trace `json:"active"`
		Recent []Trace `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("traces not JSON: %v", err)
	}
	if len(traces.Recent) != 1 || traces.Recent[0].Req != 3 {
		t.Fatalf("traces = %+v", traces)
	}
	if _, body = get("/debug/netagg/traces?format=text"); !strings.Contains(body, "req=3") {
		t.Fatalf("text traces missing req:\n%s", body)
	}

	code, body = get("/debug/netagg/health")
	if code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	var h map[string]interface{}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("health not JSON: %v", err)
	}
	if h["status"] != "ok" || h["boxes"] != float64(3) {
		t.Fatalf("health = %+v", h)
	}

	if code, _ = get("/debug/netagg/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

func TestServeStopIdempotentAndCtxCancel(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	addr, stop, err := Serve(ctx, "127.0.0.1:0", Handler(NewRegistry(), NewTracer(1), nil))
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("Serve must report the bound address")
	}
	cancel() // context cancellation alone must shut the server down
	stop()
	stop() // and stop must be safe to call again
}

// TestTracerLateRecordMergesIntoRing covers the box-vs-master race: a
// hop that reports after the master finished the trace must land in
// the completed ring entry, not open a spurious active trace.
func TestTracerLateRecordMergesIntoRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(5, "wc", Span{Hop: "shim.send", Node: "w0", Start: 10, End: 20})
	tr.Finish(5, "wc", Span{Hop: "master", Node: "m", Start: 5, End: 40}, "shim.send")
	// The box's deferred record arrives after Finish.
	tr.Record(5, "wc", Span{Hop: "box", Node: "box:1", Start: 12, End: 30})
	if n := len(tr.Active()); n != 0 {
		t.Fatalf("late record opened %d active traces, want 0", n)
	}
	got, ok := tr.Lookup(5, "wc")
	if !ok || !got.Done || len(got.Spans) != 3 {
		t.Fatalf("merged trace = %+v, %v", got, ok)
	}
	// A late Finish on the merged trace must not duplicate it in the ring.
	tr.Finish(5, "wc", Span{Hop: "master", Node: "m2", Start: 6, End: 41}, "shim.send")
	if n := len(tr.Recent(0)); n != 1 {
		t.Fatalf("ring holds %d copies of the trace, want 1", n)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.Record(1, "wc", Span{Hop: "box", Start: int64(i + 1)})
	}
	got, _ := tr.Lookup(1, "wc")
	if len(got.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", len(got.Spans), maxSpansPerTrace)
	}
	if got.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", got.Dropped)
	}
}
