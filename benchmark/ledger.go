package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// writeTrace writes the traced pass's spans, kept in memory until now, to
// <dir>/out/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	path, err := outPath(dir, "trace-"+workload+".json")
	if err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeLedger renders one workload's ledger to
// <dir>/out/ledger-<workload>.md: a row per layer with its cost per frame,
// its allocations, its cost per job as a share of the job's median
// latency, and the counts behind it.
//
// The layer-pass rows are single-goroutine costs measured from outside,
// one layer at a time, while a live job spreads the same work over every
// core and overlaps it; they say where the time can go, and need not sum
// to 100 %. The four shim rows are the traced job's own children and do
// sum to 100 % less shim.unexplained_pct.
func writeLedger(dir string, d *deployment, m map[string]float64, boxCombines []float64, problems []string) error {
	path, err := outPath(dir, "ledger-"+d.w.name+".md")
	if err != nil {
		return err
	}
	j := d.jobs[0]
	_, frames, _ := jobFrames(j, 1, []string{"127.0.0.1:0"})
	// The layer rows are as the clock gave them, so their share is of the
	// job's median latency as the clock gave it.
	jobNs := m["job_p50_ms"] * m["host.slowdown"] * 1e6
	kb := float64(j.workerBytes) / 1e3

	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", d.w.name)
	fmt.Fprintf(&b, "%s.\n\n", d.w.why)
	fmt.Fprintf(&b, "One job: %d workers, %d data frames + %d control frames, %.1f kB of partial results, reference result %.1f kB.\n",
		len(j.parts), j.dataFrames, frames-j.dataFrames, kb, float64(len(j.ref))/1e3)
	fmt.Fprintf(&b, "End to end, at the reference host speed: %.4g jobs/s, p50 %.4g ms, p95 %.4g ms, %.4g ms CPU per job; host.slowdown %.3f, %.4g jobs/s and p99 %.4g ms as measured; set-up %.3g s.\n\n",
		m["jobs_per_s"], m["job_p50_ms"], m["job_p95_ms"], m["cpu_ms_per_job"], m["host.slowdown"], m["fabric.jobs_per_s_raw"], m["fabric.job_p99_ms"], m["setup_s"])

	fmt.Fprintf(&b, "| layer | ns/frame | allocs | %% of job p50 | counts |\n|---|---|---|---|---|\n")
	row := func(layer string, perJobNs float64, allocs, counts string) {
		fmt.Fprintf(&b, "| %s | %.0f | %s | %.1f | %s |\n", layer, perJobNs/float64(frames), allocs, ratio(perJobNs, jobNs)*100, counts)
	}
	perFrame := func(ns float64) float64 { return ns * float64(frames) }
	row("wire (encode + decode)", perFrame(m["wire.encode_ns_per_frame"]+m["wire.decode_ns_per_frame"]),
		fmt.Sprintf("%.2f/frame", m["wire.allocs_per_frame"]), fmt.Sprintf("%d frames/job", frames))
	row("bufpool (get + release)", m["bufpool.get_release_ns"]*float64(j.dataFrames+1), "-",
		fmt.Sprintf("miss ratio %.4f", m["bufpool.miss_ratio"]))
	row("transport (one conn, loopback)", perFrame(m["transport.ns_per_frame"]), "-",
		fmt.Sprintf("%.4g MB/s, %.1f frames/writev alone, %.1f in the fabric, send blocked p99 %.0f us, %.2f send-queue waits/job",
			m["transport.mb_s"], m["transport.frames_per_writev"], m["obs.frames_per_writev"], m["transport.send_block_us_p99"], m["obs.sendq_waits_per_job"]))
	dispatches := m["obs.combines_per_job"] * (1 - m["obs.cutthrough_ratio"])
	row("core scheduler (dispatch)", m["core.sched_dispatch_ns"]*dispatches, "-",
		fmt.Sprintf("%.1f dispatches/job, queue depth mean %.2f max %.0f", dispatches, m["core.queue_depth_mean"], m["core.queue_depth_max"]))
	row("core local tree", m["core.tree_ms_per_job"]*1e6, "-",
		fmt.Sprintf("cut-through %.2f alone, %.2f in the fabric, %.1f combines/job", m["core.tree_cutthrough_ratio"], m["obs.cutthrough_ratio"], m["obs.combines_per_job"]))
	row("core box (lone box, one conn)", m["core.box_ms_per_job"]*1e6, "-",
		fmt.Sprintf("flush latency %.0f us, combines/job box by box %.1f", m["core.flush_latency_us"], boxCombines))
	row("agg (single-threaded fold)", m["agg.fold_ms_per_job"]*1e6,
		fmt.Sprintf("%.1f/kB", m["agg.combine_allocs_per_kb"]), fmt.Sprintf("%.0f ns/kB, %.4g MB/s", m["agg.combine_ns_per_kb"], m["agg.fold_mb_s"]))
	row("treeplan (master's plan)", m["treeplan.plan_ns"], "-", fmt.Sprintf("1 full plan + %d one-worker plans/job", len(j.parts)))
	for _, name := range []string{"submit", "send_partials", "wait", "merge"} {
		counts := fmt.Sprintf("p50 %.0f us", m["shim."+name+"_us_p50"])
		if name == "send_partials" {
			counts += fmt.Sprintf(", p99 %.0f us, %d calls/job", m["shim.send_partials_us_p99"], len(j.parts))
		}
		fmt.Fprintf(&b, "| shim.%s (traced job) | %.0f | - | %.1f | %s |\n", name,
			m["shim."+name+"_share_pct"]/100*jobNs/float64(frames), m["shim."+name+"_share_pct"], counts)
	}
	fmt.Fprintf(&b, "| whole process (traced pass) | - | %.1f/data frame | - | %.0f kB allocated/job, %.1f GC cycles/s, %.2f ms pause/cycle, heap peak %.1f MB, %.2f cores busy |\n\n",
		m["proc.allocs_per_frame"], m["proc.alloc_kb_per_job"], m["proc.gc_cycles_per_s"], m["proc.gc_pause_ms"], m["proc.heap_peak_mb"], m["proc.cpu_cores_busy"])

	fmt.Fprintf(&b, "- shim.unexplained_pct: %.3f %% of traced job time is in none of the four spans\n", m["shim.unexplained_pct"])
	fmt.Fprintf(&b, "- fabric.goodput_over_transport: %.4f (%.4g MB/s of partial results end to end over %.4g MB/s of raw transport; %.0f data frames/s)\n",
		m["fabric.goodput_over_transport"], m["fabric.goodput_mb_s"], m["transport.mb_s"], m["fabric.frames_per_s"])
	fmt.Fprintf(&b, "- shim.alpha: %.4f; fabric.rate_drift: %.3f (last fifth of the e2e window over the first); bench.trace_overhead_pct: %.1f %%\n",
		m["shim.alpha"], m["fabric.rate_drift"], m["bench.trace_overhead_pct"])
	fmt.Fprintf(&b, "- obs.dup_frames: %.0f; obs.reconnects: %.0f (both must be 0)\n", m["obs.dup_frames"], m["obs.reconnects"])
	for _, p := range problems {
		fmt.Fprintf(&b, "- INVALID: %s\n", p)
	}
	b.WriteString("\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// joinLedgers assembles <dir>/LEDGER.md from the workloads' ledgers in
// <dir>/out, in workload order.
func joinLedgers(dir string) error {
	var b strings.Builder
	b.WriteString("# Fabric benchmark ledger\n\n")
	b.WriteString("Rendered by the benchmark command from its last full run; README.md says how to read it.\n")
	b.WriteString("Unpaced testbed, closed loop, in-process load, loopback traffic: software cost, not link rates.\n\n")
	for i := range workloads {
		part, err := os.ReadFile(filepath.Join(dir, "out", "ledger-"+workloads[i].name+".md"))
		if err != nil {
			return err
		}
		b.Write(part)
	}
	return os.WriteFile(filepath.Join(dir, "LEDGER.md"), []byte(b.String()), 0o644)
}
