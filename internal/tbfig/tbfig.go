// Package tbfig regenerates the paper's testbed figures (§4.2, Figs 15-26)
// on the emulated testbed: the local aggregation tree micro-benchmark, the
// Solr-analogue search experiments (throughput, latency, output ratio,
// two racks, scale-out, scale-up), the Hadoop-analogue MapReduce
// experiments (benchmark suite, output ratio, data size), and the
// multi-application CPU sharing experiments.
//
// Bandwidth is emulated at 1:100 scale (internal/netem), so throughputs are
// reported in "Gbps-equivalent": measured bytes/s × scale × 8. The paper's
// CPU-intensive aggregation is emulated with size-proportional virtual cost
// (agg.VirtualCost) because the reference host exposes a single CPU; see
// DESIGN.md.
package tbfig

import (
	"fmt"
	"time"

	"netagg/internal/agg"
	"netagg/internal/corpus"
	"netagg/internal/metrics"
	"netagg/internal/netem"
	"netagg/internal/search"
	"netagg/internal/stats"
	"netagg/internal/testbed"
	"netagg/internal/treeplan"
)

// All declares every testbed figure once: its id and the function that
// regenerates it, in the order netagg-bench prints them. Figs 16 and 17
// are the throughput and the latency of the same client sweep, so they
// are one row.
var All = []metrics.Figure[Options]{
	metrics.One("fig15", Fig15),
	{IDs: []string{"fig16", "fig17"}, Run: Fig16And17},
	metrics.One("fig18", Fig18),
	metrics.One("fig19", Fig19),
	metrics.One("fig20", Fig20),
	metrics.One("fig21", Fig21),
	metrics.One("fig22", Fig22),
	metrics.One("fig23", Fig23),
	metrics.One("fig24", Fig24),
	metrics.One("fig25", Fig25),
	metrics.One("fig26", Fig26),
	metrics.One("ext-fanout", ExtFanout),
	metrics.One("tab01", Tab01),
}

// Options tunes experiment durations so tests can run quick variants.
type Options struct {
	// Window is the measurement window per data point (default 3s).
	Window time.Duration
	// Seed for query generation.
	Seed int64
}

func (o Options) window() time.Duration {
	if o.Window <= 0 {
		return 3 * time.Second
	}
	return o.Window
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// gbpsEquiv converts emulated bytes over a duration to Gbps-equivalent at
// the bandwidth emulation scale every testbed here runs at.
func gbpsEquiv(bytes int64, dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(bytes) * 8 * netem.DefaultScale / dur.Seconds() / 1e9
}

// searchRig is a deployed search cluster plus its testbed.
type searchRig struct {
	tb *testbed.Testbed
	cl *search.Cluster
}

func (r *searchRig) close() {
	r.cl.Close()
	r.tb.Close()
}

// searchOpts configures a search deployment for one experiment point.
type searchOpts struct {
	racks       int
	backends    int // per rack
	boxes       int // per switch; 0 = plain
	boxWorkers  int
	sampleRatio float64
	categorise  bool
}

// newSearchRig deploys the Solr-analogue experiment set-up (§4.2.1): 1 Gbps
// hosts, 10 Gbps boxes, sample or categorise aggregation.
func newSearchRig(o searchOpts) (*searchRig, error) {
	var aggregator agg.Aggregator
	var app string
	if o.categorise {
		app = "solr-categorise"
		aggregator = agg.VirtualCost{
			Inner: agg.Categorise{K: 10, Categories: corpus.Categories()},
			PerKB: 500 * time.Microsecond,
		}
	} else {
		app = "solr-sample"
		aggregator = agg.Sample{Ratio: o.sampleRatio}
	}
	reg := agg.NewRegistry()
	reg.Register(app, aggregator)
	tb, err := testbed.New(testbed.Config{
		Racks:          o.racks,
		WorkersPerRack: o.backends,
		BoxesPerSwitch: o.boxes,
		EdgeGbps:       1,
		BoxGbps:        10,
		Registry:       reg,
		BoxWorkers:     o.boxWorkers,
		Planner:        treeplan.OnPath{},
		Seed:           1,
	})
	if err != nil {
		return nil, err
	}
	cl, err := search.Deploy(tb, search.DeployConfig{
		App: app,
		Corpus: corpus.Config{
			Seed: 1, Docs: 150 * o.racks * o.backends,
			WordsPerDoc: 110, VocabularySize: 800, ZipfS: 1.1,
		},
		Aggregator: aggregator,
		Categorise: o.categorise,
		ChunkDocs:  25,
	})
	if err != nil {
		tb.Close()
		return nil, err
	}
	return &searchRig{tb: tb, cl: cl}, nil
}

// loadResult is one measured client-load point.
type loadResult struct {
	queries  int
	bytes    int64 // backend result bytes entering the aggregation path
	p99      time.Duration
	duration time.Duration
}

// runClients drives the frontend with closed-loop clients for the window
// (§4.2.1: "each client continuously submits a query for three random
// words") and reports completed queries, backend bytes, and tail latency.
func runClients(rig *searchRig, clients int, limit int, withText bool, window time.Duration, seed int64) loadResult {
	type qres struct {
		latency time.Duration
		ok      bool
	}
	results := make(chan qres, 4096)
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(c int) {
			rn := stats.NewRand(seed + int64(c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				terms := corpus.QueryWords(rn, 800, 3)
				resp, err := rig.cl.Frontend.Query(terms, limit, withText)
				select {
				case results <- qres{latency: latencyOf(resp), ok: err == nil}:
				case <-stop:
					return
				}
			}
		}(c)
	}
	before := workerBytesOut(rig)
	start := time.Now()
	lat := metrics.NewSample(1024)
	completed := 0
	deadline := time.After(window)
collect:
	for {
		select {
		case r := <-results:
			if r.ok {
				completed++
				lat.Add(r.latency.Seconds())
			}
		case <-deadline:
			break collect
		}
	}
	close(stop)
	dur := time.Since(start)
	return loadResult{
		queries:  completed,
		bytes:    workerBytesOut(rig) - before,
		p99:      time.Duration(lat.P99() * float64(time.Second)),
		duration: dur,
	}
}

func latencyOf(resp *search.Response) time.Duration {
	if resp == nil {
		return 0
	}
	return resp.Latency
}

// workerBytesOut measures the backend data volume entering the aggregation
// path: the boxes' ingress when deployed, or the master shim's ingress in
// plain mode (where the full unreduced volume reaches the master). Using
// the steady-state byte counters rather than completed-query counts keeps
// the throughput meaningful even when queries outlast the window.
func workerBytesOut(rig *searchRig) int64 {
	if len(rig.tb.Boxes) > 0 {
		return rig.tb.BoxStats().BytesIn
	}
	return rig.tb.Master.ResultBytes()
}

// Fig16And17 regenerates both figures of the client sweep (§4.2.1) from
// one run of it, plain search and search on NetAgg (sample, α = 5 %) at
// each client count: Figure 16, network throughput — the paper's metric,
// backend result data processed per second (the traffic NetAgg
// aggregates), not the reduced volume reaching the frontend — and Figure
// 17, 99th-percentile response latency.
func Fig16And17(o Options) []*metrics.Report {
	clients := []int{1, 2, 4, 8, 16, 32}
	fig16 := metrics.NewTable("Fig 16 — network throughput (Gbps-equiv) vs clients (Solr, sample α=5%)",
		"clients", "solr", "netagg")
	fig17 := metrics.NewTable("Fig 17 — 99th percentile response latency (s) vs clients (Solr)",
		"clients", "solr_s", "netagg_s")
	throughput := make([][]interface{}, len(clients))
	p99 := make([][]interface{}, len(clients))
	for i, n := range clients {
		throughput[i] = []interface{}{n}
		p99[i] = []interface{}{n}
	}
	for _, boxes := range []int{0, 1} { // the solr column, then the netagg column
		rig, err := newSearchRig(searchOpts{
			racks: 1, backends: 8, boxes: boxes, sampleRatio: 0.05,
		})
		if err != nil {
			panic(fmt.Sprintf("tbfig: %v", err))
		}
		for i, n := range clients {
			r := runClients(rig, n, 40, true, o.window(), o.seed())
			throughput[i] = append(throughput[i], gbpsEquiv(r.bytes, r.duration))
			p99[i] = append(p99[i], r.p99.Seconds())
		}
		rig.close()
	}
	for i := range clients {
		fig16.AddRow(throughput[i]...)
		fig17.AddRow(p99[i]...)
	}
	return []*metrics.Report{{
		ID:    "fig16",
		Title: "Network throughput against number of clients (Solr)",
		Table: fig16,
		Notes: "1 rack, 8 backends on 1G links, box on 10G; Gbps-equivalent at the netem bandwidth scale",
	}, {
		ID:    "fig17",
		Title: "Response latency against number of clients (Solr)",
		Table: fig17,
	}}
}
