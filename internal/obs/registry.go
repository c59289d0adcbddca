// Package obs is the runtime observability layer of the NetAgg data
// plane: a concurrent metrics registry (counters, gauges, power-of-two
// bucket histograms), lightweight per-request tracing keyed by the wire
// request id, and the /debug/netagg HTTP endpoint that exposes both.
//
// The paper's evaluation (§5) is built on per-hop visibility — traffic
// reduction at every tree level (Fig 16), per-box aggregation cost
// (Figs 21-24), failure-detection latency (§3.1) — and this package is
// the live counterpart of those offline measurements: every layer of
// the fabric (transport, core, shim, cluster) feeds the default
// registry, so a running deployment can answer "what is my aggregation
// tree doing right now".
//
// Design constraints:
//
//   - Dependency-free: stdlib only (plus the repo's own table renderer).
//   - Allocation-free hot path: Counter.Add, Gauge.Set/Add and
//     Histogram.Observe perform only atomic operations, enforced by
//     BenchmarkObsCounter/BenchmarkObsHistogram and a testing.AllocsPerRun
//     regression test. Handles are resolved once (package-level vars in
//     the instrumented packages), never per event.
//   - Single process, no labels: a registry aggregates over all boxes or
//     shims sharing the process, which matches both the standalone
//     aggbox daemon (one box per process) and the in-process testbed
//     (whole-deployment totals, the granularity of Figs 15-20).
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"netagg/internal/metrics"
)

// Counter is a monotonically increasing metric (frames forwarded,
// requests completed). The zero value is invalid; obtain counters from a
// Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (open connections, scheduler queue
// depth). The zero value is invalid; obtain gauges from a Registry.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Allocation-free.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease). Allocation-free.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets: bucket 0 holds the
// value 0, bucket i (1 ≤ i ≤ 64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed power-of-two bucket histogram for latencies and
// sizes. Observing is a handful of atomic operations — no locks, no
// allocation — at the cost of bucket-resolution percentiles (exact to a
// factor of two, which is enough to tell a 100 µs flush from a 10 ms
// one). The zero value is invalid; obtain histograms from a Registry.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialised to MaxInt64 by the registry
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
// Allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// snapshot copies the histogram into an immutable view.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	s.P50 = quantile(&counts, s.Count, 0.50)
	s.P90 = quantile(&counts, s.Count, 0.90)
	s.P99 = quantile(&counts, s.Count, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// sample — a value ≥ the true quantile by at most 2×.
func quantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return int64(1)<<uint(i) - 1
		}
	}
	return math.MaxInt64 // unreachable while counts sum to total
}

// HistogramSnapshot is a point-in-time view of a histogram. Percentiles
// are bucket upper bounds (exact to a factor of two).
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"` // Sum of all observed values.
	// Min and Max are the exact extreme observations (0 when empty).
	Min int64 `json:"min"`
	Max int64 `json:"max"` // Max observed value.
	// P50, P90 and P99 are quantile estimates (bucket upper bounds).
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"` // P90 quantile estimate.
	P99 int64 `json:"p99"` // P99 quantile estimate.
}

// Mean returns the arithmetic mean of the observed values.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry is a concurrent metric namespace. Metric handles are created
// on first use and live for the registry's lifetime; lookups take a
// mutex (setup path), updates through the returned handles are
// lock-free (hot path). Metric names are dot-separated
// "<layer>.<metric>[_<unit>]", e.g. "transport.bytes_out",
// "cluster.hb_rtt_us" — see the catalogue in DESIGN.md §11.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every instrumented layer feeds.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		h.min.Store(math.MaxInt64)
		r.hists[name] = h
	}
	return h
}

// C returns a counter on the Default registry (instrumentation shorthand).
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge on the Default registry (instrumentation shorthand).
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram on the Default registry (instrumentation
// shorthand).
func H(name string) *Histogram { return Default.Histogram(name) }

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	// Counters and Gauges map metric name to current value.
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"` // Gauges by name.
	// Histograms maps metric name to its distribution summary.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Values are read without
// stopping writers, so counters read during a burst may be mutually
// inconsistent by a few events — fine for monitoring, by design.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// WriteJSON writes the registry's snapshot as one expvar-style JSON
// object. Map keys are emitted sorted (encoding/json), so the output is
// diffable.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Table renders the registry as an aligned text table (the same
// renderer every figure harness uses), one row per metric sorted by
// name. Histogram rows carry count/mean/percentiles; counter and gauge
// rows carry the value.
func (r *Registry) Table() *metrics.Table {
	s := r.Snapshot()
	t := metrics.NewTable("netagg metrics", "metric", "type", "value", "count", "mean", "p50", "p90", "p99", "max")
	type row struct {
		name, kind string
	}
	var rows []row
	for name := range s.Counters {
		rows = append(rows, row{name, "counter"})
	}
	for name := range s.Gauges {
		rows = append(rows, row{name, "gauge"})
	}
	for name := range s.Histograms {
		rows = append(rows, row{name, "histogram"})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, rw := range rows {
		switch rw.kind {
		case "counter":
			t.AddRow(rw.name, rw.kind, s.Counters[rw.name], "", "", "", "", "", "")
		case "gauge":
			t.AddRow(rw.name, rw.kind, s.Gauges[rw.name], "", "", "", "", "", "")
		case "histogram":
			h := s.Histograms[rw.name]
			t.AddRow(rw.name, rw.kind, "", h.Count, h.Mean(), h.P50, h.P90, h.P99, h.Max)
		}
	}
	return t
}
