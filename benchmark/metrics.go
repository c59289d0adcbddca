package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; the smoke test fails when
// the two disagree.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the fabric sees, from the e2e pass
// with tracing off (setup_s: around set-up). The four timings are stated at
// the reference host speed (yardstick.go).
//
// Every bound is the contract's cap of 0.25, not the issue's 25/7/8/15/7 %:
// the driver refuses a benchmark whose ten-seed spread exceeds a bound. On
// the shared host this was written on the spreads of the four timings as the
// clock gave them reach 33 %, with the yardstick 3-12 %, and twice that on a
// bad day. README.md has the figures and what follows for later claims.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers: the layer pass (one
// goroutine, exported functions), the traced pass (live jobs with spans,
// counter diffs and the sampler on), and figures derived for the ledger.
// README.md maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// layer pass
	{"wire.encode_ns_per_frame", "ns", "lower", 0},
	{"wire.decode_ns_per_frame", "ns", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	{"bufpool.get_release_ns", "ns", "lower", 0},
	{"bufpool.miss_ratio", "ratio", "lower", 0},
	{"transport.ns_per_frame", "ns", "lower", 0},
	{"transport.mb_s", "MB/s", "higher", 0},
	{"transport.frames_per_writev", "count", "higher", 0},
	{"transport.send_block_us_p99", "us", "lower", 0},
	{"core.sched_dispatch_ns", "ns", "lower", 0},
	{"core.tree_ms_per_job", "ms", "lower", 0},
	{"core.tree_cutthrough_ratio", "ratio", "higher", 0},
	{"core.box_ms_per_job", "ms", "lower", 0},
	{"agg.fold_ms_per_job", "ms", "lower", 0},
	{"agg.combine_ns_per_kb", "ns", "lower", 0},
	{"agg.combine_allocs_per_kb", "count", "lower", 0},
	{"agg.fold_mb_s", "MB/s", "higher", 0},
	{"treeplan.plan_ns", "ns", "lower", 0},
	// traced pass: the harness's spans around the public shim calls
	{"shim.submit_us_p50", "us", "lower", 0},
	{"shim.submit_share_pct", "%", "lower", 0},
	{"shim.send_partials_us_p50", "us", "lower", 0},
	{"shim.send_partials_us_p99", "us", "lower", 0},
	{"shim.send_partials_share_pct", "%", "lower", 0},
	{"shim.wait_us_p50", "us", "lower", 0},
	{"shim.wait_share_pct", "%", "lower", 0},
	{"shim.merge_us_p50", "us", "lower", 0},
	{"shim.merge_share_pct", "%", "lower", 0},
	{"shim.unexplained_pct", "%", "lower", 0},
	{"shim.alpha", "ratio", "lower", 0},
	// traced pass: exported counters diffed across it
	{"obs.frames_per_writev", "count", "higher", 0},
	{"obs.sendq_waits_per_job", "count", "lower", 0},
	{"obs.combines_per_job", "count", "lower", 0},
	{"obs.cutthrough_ratio", "ratio", "higher", 0},
	{"obs.dup_frames", "count", "lower", 0},
	{"obs.reconnects", "count", "lower", 0},
	// traced pass: box load signals sampled every 5 ms
	{"core.queue_depth_mean", "count", "lower", 0},
	{"core.queue_depth_max", "count", "lower", 0},
	{"core.flush_latency_us", "us", "lower", 0},
	// traced pass: the process
	{"proc.allocs_per_frame", "count", "lower", 0},
	{"proc.alloc_kb_per_job", "kB", "lower", 0},
	{"proc.gc_cycles_per_s", "1/s", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	{"proc.cpu_cores_busy", "cores", "higher", 0},
	// derived, for the ledger
	{"fabric.goodput_mb_s", "MB/s", "higher", 0},
	{"fabric.frames_per_s", "1/s", "higher", 0},
	{"fabric.goodput_over_transport", "ratio", "higher", 0},
	{"fabric.job_p99_ms", "ms", "lower", 0},
	{"fabric.rate_drift", "ratio", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	// the host, as the yardstick saw it over the e2e pass
	{"host.slowdown", "ratio", "lower", 0},
	{"fabric.jobs_per_s_raw", "1/s", "higher", 0},
}

// e2eMetrics computes, from the untraced pass, the end-to-end metrics and
// the whole-fabric figures the ledger derives from the same samples. The
// four timed end-to-end metrics are stated at the reference host speed:
// the rate is multiplied and the times are divided by slow, the host's
// slowdown over the pass as the yardstick saw it. Everything else is as
// measured.
func e2eMetrics(r *passResult, slow float64, m map[string]float64) {
	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = float64(s.end-s.start) / 1e6
	}
	rates := r.rates()
	m["jobs_per_s"] = r.jobsPerS() * slow
	m["job_p50_ms"] = percentile(lat, 0.50) / slow
	m["job_p95_ms"] = percentile(lat, 0.95) / slow
	m["cpu_ms_per_job"] = ratio(r.cpu.Seconds()*1e3, float64(len(r.samples))) / slow

	m["host.slowdown"] = slow
	m["fabric.jobs_per_s_raw"] = r.jobsPerS()

	m["fabric.goodput_mb_s"] = float64(r.workerBytes) / 1e6 / r.elapsed.Seconds()
	m["fabric.frames_per_s"] = float64(r.dataFrames) / r.elapsed.Seconds()
	m["fabric.job_p99_ms"] = percentile(lat, 0.99)
	m["fabric.rate_drift"] = ratio(rates[len(rates)-1], rates[0])
}

// tracedMetrics computes what the traced pass saw: the harness's spans,
// the exported counters diffed across it, the sampler, and the process.
func tracedMetrics(r *passResult, before, after *procState, s *sampled, m map[string]float64) {
	jobs := float64(len(r.samples))

	durUs := map[string][]float64{}
	totalUs := map[string]float64{}
	for _, sp := range r.spans {
		us := float64(sp.End-sp.Start) / 1e3
		durUs[sp.Name] = append(durUs[sp.Name], us)
		totalUs[sp.Name] += us
	}
	explained := 0.0
	for _, name := range []string{"submit", "send_partials", "wait", "merge"} {
		share := ratio(totalUs[name], totalUs["job"]) * 100
		explained += share
		m["shim."+name+"_us_p50"] = percentile(durUs[name], 0.50)
		m["shim."+name+"_share_pct"] = share
	}
	m["shim.send_partials_us_p99"] = percentile(durUs["send_partials"], 0.99)
	m["shim.unexplained_pct"] = 100 - explained
	m["shim.alpha"] = ratio(float64(r.resultBytes), float64(r.workerBytes))

	counter := func(name string) float64 {
		return float64(after.obs.Counters[name] - before.obs.Counters[name])
	}
	m["obs.frames_per_writev"] = ratio(counter("transport.batch_frames"), counter("transport.writev_calls"))
	m["obs.sendq_waits_per_job"] = ratio(counter("transport.sendq_waits"), jobs)
	m["obs.combines_per_job"] = ratio(counter("box.combines"), jobs)
	m["obs.cutthrough_ratio"] = ratio(counter("box.cutthrough_merges"), counter("box.combines"))
	m["obs.dup_frames"] = counter("box.dup_frames_dropped") + counter("shim.dup_frames_dropped")
	m["obs.reconnects"] = counter("transport.reconnects")
	m["bufpool.miss_ratio"] = ratio(float64(after.pool.News-before.pool.News), float64(after.pool.Gets-before.pool.Gets))

	m["core.queue_depth_mean"] = ratio(s.depthSum, float64(s.n))
	m["core.queue_depth_max"] = s.depthMax
	m["core.flush_latency_us"] = ratio(s.flushUsSum, float64(s.n))

	gcs := float64(after.mem.NumGC - before.mem.NumGC)
	m["proc.allocs_per_frame"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(r.dataFrames))
	m["proc.alloc_kb_per_job"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e3, jobs)
	m["proc.gc_cycles_per_s"] = gcs / r.elapsed.Seconds()
	m["proc.gc_pause_ms"] = ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, gcs)
	m["proc.heap_peak_mb"] = float64(s.heapPeak) / 1e6
	m["proc.cpu_cores_busy"] = r.cpu.Seconds() / r.elapsed.Seconds()
}
