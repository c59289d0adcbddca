// Command benchmark is the repo's fabric benchmark: whole-job throughput
// and latency of the shim → transport → agg box → master data plane on
// four unpaced workloads, with a per-layer ledger. See README.md.
//
// With -workload it measures that workload in this process and prints
// every metric by name and unit, then one JSON object as the last line of
// standard output. Without, it runs every workload, each in a fresh child
// process so the process-wide counters and the buffer pool start clean,
// and renders LEDGER.md; -aa does that twice and compares the two sets.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/obs"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == yardstickArg {
		yardstickMain()
		return
	}
	var (
		name    = flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "seed the partial results are generated from")
		seconds = flag.Float64("seconds", fullE2E+fullTraced+fullLayer, "seconds of measurement: the 25 s + 8 s + 4 s shape shrunk in proportion, or with -trace 0 the e2e pass alone")
		trace   = flag.Int("trace", -1, "0 = the e2e pass and the end-to-end metrics only, 1 = all three passes but the per-layer metrics only, -1 = everything")
		aa      = flag.Bool("aa", false, "run the whole set twice and fail if the two disagree by more than a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 || *aa && (*name != "" || *trace == 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "" {
		os.Exit(runSet(*seed, *seconds, *trace, *aa))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep, err := runWorkload(newRunConfig(w, *seed, *seconds, *trace, benchDir), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// benchDir is the benchmark's directory in the checkout the command runs
// from the root of: traces and per-workload ledgers go to benchDir/out, the
// whole set's ledger to benchDir/LEDGER.md.
const benchDir = "benchmark"

// The full shape: a 3 s warm-up at the end of set-up, then a 25 s e2e pass,
// an 8 s traced pass and a 4 s layer pass.
const (
	fullWarm   = 3.0
	fullE2E    = 25.0
	fullTraced = 8.0
	fullLayer  = 4.0
)

// runConfig is the shape of one workload's run.
type runConfig struct {
	w    *workload
	seed int64
	// trace selects what is reported: 0 = the end-to-end metrics (and only
	// the e2e pass runs), 1 = the per-layer metrics, -1 = every metric.
	trace int
	// e2e, traced and layer are the three measurement windows; traced and
	// layer are zero when trace is 0. warm is the warm-up at the end of
	// set-up.
	e2e, traced, layer, warm time.Duration
	// setups is how many times the deployment is set up (and torn down
	// again, but for the last); setup_s is their median.
	setups int
	// dir receives out/trace-<workload>.json and out/ledger-<workload>.md
	// after a traced pass.
	dir string
}

// newRunConfig shrinks the full shape to seconds of measurement in total.
// With trace 0 the e2e pass has all of it, and set-up runs three times so
// that setup_s is a median.
func newRunConfig(w *workload, seed int64, seconds float64, trace int, dir string) runConfig {
	scale := seconds / (fullE2E + fullTraced + fullLayer)
	cfg := runConfig{w: w, seed: seed, trace: trace, dir: dir, setups: 1}
	if trace == 0 {
		scale = seconds / fullE2E
		cfg.setups = 3
	}
	secs := func(s float64) time.Duration {
		return time.Duration(s * scale * float64(time.Second)).Round(time.Millisecond)
	}
	cfg.warm, cfg.e2e = secs(fullWarm), secs(fullE2E)
	if trace != 0 {
		cfg.traced, cfg.layer = secs(fullTraced), secs(fullLayer)
	}
	return cfg
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a workload's run ends with.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload sets the workload up, runs the passes cfg selects, checks
// every result and the fabric's invariants, and prints each metric to out.
// An error means the run could not be completed; wrong results or broken
// invariants come back as a report with Correct false.
func runWorkload(cfg runConfig, out io.Writer) (*report, error) {
	w := cfg.w
	// The load is generated in-process by `clients` closed-loop goroutines;
	// with GOMAXPROCS the same, throughput is a CPU-saturated figure.
	clients := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(clients)
	fmt.Fprintf(out, "# workload %s seed %d: %d rack(s) x %d workers, %d closed-loop clients, GOMAXPROCS %d, nproc %d\n",
		w.name, cfg.seed, w.racks, w.perRack, clients, clients, runtime.NumCPU())
	fmt.Fprintf(out, "# netem pacing off; traffic crosses the host's loopback, never a real link\n")
	fmt.Fprintf(out, "# windows: warm-up %v, e2e %v, traced %v, layer %v; set-ups %d\n", cfg.warm, cfg.e2e, cfg.traced, cfg.layer, cfg.setups)

	poolBase := bufpool.ReadStats()
	obsBase := obs.Default.Snapshot()
	m := make(map[string]float64)
	var problems []string
	rep := &report{Metrics: make(map[string]value)}

	// The yardstick child is started before set-up, so building its kernel
	// is not timed, and measures from the first pass to the last.
	yard, err := startYardstick()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer yard.kill()

	var d *deployment
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.closeAndDrain(poolBase); err != nil {
				problems = append(problems, err.Error())
			}
		}
		start := time.Now()
		var err error
		if d, err = setUp(w, cfg.seed, clients, cfg.warm); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	m["setup_s"] = median(setupS)

	count := func(r *passResult, pass string) {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if r.failed > 0 {
			problems = append(problems, fmt.Sprintf("%s pass: %d of %d jobs failed, first: %s", pass, r.failed, r.attempted, r.firstErr))
		}
		fmt.Fprintf(out, "# %s pass: %d jobs attempted, %d failed, %d latency samples, %.2f of %d cores busy\n",
			pass, r.attempted, r.failed, len(r.samples), r.cpu.Seconds()/r.elapsed.Seconds(), clients)
	}

	if err := yard.begin(); err != nil {
		return nil, fmt.Errorf("%s: yardstick: %w", w.name, err)
	}
	e2e := d.pass(cfg.e2e, clients, false)
	count(&e2e, "e2e")
	var traced passResult
	var before, after procState
	var smp sampled
	if cfg.trace != 0 {
		traced, before, after, smp = d.tracedPass(cfg.traced, clients)
		count(&traced, "traced")
	}
	yardSamples, err := yard.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: yardstick: %w", w.name, err)
	}
	slow := slowdown(yardSamples, e2e.epoch, e2e.epoch.Add(e2e.elapsed))
	if slow == 0 {
		return nil, fmt.Errorf("%s: the yardstick ran fewer than 3 times in the e2e pass", w.name)
	}
	e2eMetrics(&e2e, slow, m)
	fmt.Fprintf(out, "# host.slowdown %.4f over the e2e pass; as measured: %.6g jobs/s, p50 %.6g ms, p95 %.6g ms, %.6g ms CPU per job\n",
		slow, m["fabric.jobs_per_s_raw"], m["job_p50_ms"]*slow, m["job_p95_ms"]*slow, m["cpu_ms_per_job"]*slow)

	var spans []span
	var boxCombines []float64 // per job, box by box
	if cfg.trace != 0 {
		tracedMetrics(&traced, &before, &after, &smp, m)
		// Both rates at the reference host speed, or the host's drift
		// between the two passes would count as tracing overhead.
		tracedSlow := slowdown(yardSamples, traced.epoch, traced.epoch.Add(traced.elapsed))
		if tracedSlow == 0 {
			tracedSlow = slow
		}
		m["bench.trace_overhead_pct"] = (1 - ratio(traced.jobsPerS()*tracedSlow, e2e.jobsPerS()*slow)) * 100
		spans = traced.spans
		for i := range after.boxes {
			boxCombines = append(boxCombines, ratio(float64(after.boxes[i]-before.boxes[i]), float64(len(traced.samples))))
		}
		if busy := m["proc.cpu_cores_busy"]; busy < 0.75*float64(clients) {
			fmt.Fprintf(out, "# NOTE: %.2f of %d cores busy: jobs_per_s is not a capacity figure on this workload\n", busy, clients)
		}

		lm, err := layerPass(d, cfg.layer)
		if err != nil {
			// A layer that fails or answers wrongly is an incorrect
			// output, not a reason to lose the other metrics.
			problems = append(problems, "layer pass: "+err.Error())
		}
		for k, v := range lm {
			m[k] = v
		}
		m["fabric.goodput_over_transport"] = ratio(m["fabric.goodput_mb_s"], m["transport.mb_s"])
	}

	if err := d.closeAndDrain(poolBase); err != nil {
		problems = append(problems, err.Error())
	}
	end := obs.Default.Snapshot()
	for _, c := range []string{"box.dup_frames_dropped", "shim.dup_frames_dropped", "transport.reconnects"} {
		if n := end.Counters[c] - obsBase.Counters[c]; n != 0 {
			problems = append(problems, fmt.Sprintf("%s = %d, want 0: the run is invalid", c, n))
		}
	}

	var defs []metricDef
	if cfg.trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if cfg.trace != 0 {
		defs = append(defs, perLayer...)
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s was not measured", def.name))
			v = 0
		}
		fmt.Fprintf(out, "%-32s %14.6g %s\n", def.name, v, def.unit)
		rep.Metrics[def.name] = value{v, def.unit}
	}
	for _, p := range problems {
		fmt.Fprintf(out, "# INVALID: %s\n", p)
	}
	rep.Correct = len(problems) == 0
	if cfg.trace != 0 {
		if err := writeTrace(cfg.dir, w.name, spans); err != nil {
			return nil, err
		}
		if err := writeLedger(cfg.dir, d, m, boxCombines, problems); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runChild runs one workload in a fresh process of this same program,
// passing its output through, and returns the report on its last line.
func runChild(w *workload, seed int64, seconds float64, trace int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return &rep, nil
}

// runSet runs every workload, each in its own process, and assembles
// LEDGER.md from their ledgers. With aa it runs the set twice on the same
// build and seed and compares every workload × end-to-end metric with its
// bound. It returns the process's exit code.
func runSet(seed int64, seconds float64, trace int, aa bool) int {
	code := 0
	sets := 1
	if aa {
		sets = 2
	}
	reports := make([]map[string]*report, sets)
	for s := range reports {
		reports[s] = make(map[string]*report)
		for i := range workloads {
			w := &workloads[i]
			rep, err := runChild(w, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !rep.Correct {
				code = 1
			}
			reports[s][w.name] = rep
		}
	}
	if trace != 0 {
		if err := joinLedgers(benchDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !aa {
		return code
	}
	fmt.Printf("\n# A/A: two sets of runs of the same build, seed %d\n", seed)
	fmt.Printf("%-16s %-16s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		name := workloads[i].name
		for _, def := range endToEnd {
			a, b := reports[0][name].Metrics[def.name].Value, reports[1][name].Metrics[def.name].Value
			diff := math.Abs(ratio(b-a, a))
			verdict := ""
			if diff > def.bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-16s %-16s %12.6g %12.6g %7.1f%% %7.1f%%%s\n", name, def.name, a, b, diff*100, def.bound*100, verdict)
		}
	}
	return code
}

// outPath is <dir>/out/<file>, with the directory made.
func outPath(dir, file string) (string, error) {
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(out, file), nil
}
