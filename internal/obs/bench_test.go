package obs

import "testing"

// BenchmarkObsCounter measures the per-event cost of the counter hot
// path; ReportAllocs enforces the package's 0 allocs/op claim
// (DESIGN.md §11 quotes these numbers as the instrumentation overhead).
func BenchmarkObsCounter(b *testing.B) {
	c := NewRegistry().Counter("bench.count")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsHistogram measures Observe: two atomic adds, one bucket
// add, and the min/max CAS loops.
func BenchmarkObsHistogram(b *testing.B) {
	h := NewRegistry().Histogram("bench.lat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xFFFF))
	}
}

// BenchmarkObsCounterParallel measures contended counters — the shape
// the transport layer produces with many reader goroutines bumping the
// same frames_in counter.
func BenchmarkObsCounterParallel(b *testing.B) {
	c := NewRegistry().Counter("bench.count")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// traceJob records what one search_topk-shaped job leaves in the tracer:
// eight workers' send spans, the box's span, and the master's finish
// reading back the bytes the shims sent.
func traceJob(tr *Tracer, req uint64) int64 {
	for w := 0; w < 8; w++ {
		tr.Record(req, "topk", Span{Hop: "shim.send", Node: "r0-h1", Start: int64(req + 1), End: int64(req + 2), Parts: 1, BytesOut: 640})
	}
	tr.Record(req, "topk", Span{Hop: "box", Node: "box:4294967296", Start: int64(req + 1), End: int64(req + 3), Parts: 8, BytesIn: 5120, BytesOut: 640})
	return tr.Finish(req, "topk", Span{Hop: "master", Node: "master", Start: int64(req + 1), End: int64(req + 4), Parts: 1, BytesIn: 640}, "shim.send")
}

// BenchmarkTracerJob measures the tracer's share of a small job over
// rolling request ids (DESIGN.md §11 quotes it): every job begins a trace
// and overwrites the oldest.
func BenchmarkTracerJob(b *testing.B) {
	tr := NewTracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if traceJob(tr, uint64(i)) != 8*640 {
			b.Fatal("a job's shim.send bytes went missing")
		}
	}
}
