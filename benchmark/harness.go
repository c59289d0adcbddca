package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/obs"
	"netagg/internal/testbed"
	"netagg/internal/treeplan"
)

// nextReq hands out request ids. It is process-wide so a second
// deployment in the same process never reuses an id the process-global
// obs.DefaultTracer may still hold spans for.
var nextReq atomic.Uint64

// deployment is one workload's running testbed plus its job pool.
type deployment struct {
	w     *workload
	tb    *testbed.Testbed
	jobs  []*job
	hosts []string
}

// setUp builds the unpaced deployment, generates the job pool with its
// reference results, and runs warm-up jobs for warm. The caller times it:
// all of it is setup_s.
func setUp(w *workload, seed int64, clients int, warm time.Duration) (*deployment, error) {
	reg := agg.NewRegistry()
	reg.Register(appName, w.aggregator)
	tb, err := testbed.New(testbed.Config{
		Racks: w.racks, WorkersPerRack: w.perRack, BoxesPerSwitch: 1,
		EdgeGbps: 0, BoxGbps: 0, // pacing off: this measures software, not the token bucket
		Registry: reg, BoxWorkers: 4, Planner: treeplan.OnPath{}, Seed: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	d := &deployment{w: w, tb: tb, hosts: tb.WorkerHosts(), jobs: make([]*job, poolJobs)}

	// Jobs are independent streams of the seed, so generate them on every
	// client core; each reference fold is still single-threaded.
	errs := make([]error, poolJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < poolJobs; i = int(next.Add(1)) - 1 {
				d.jobs[i], errs[i] = w.genJob(seed, i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tb.Close()
		return nil, err
	}

	if res := d.pass(warm, clients, false); res.failed > 0 {
		tb.Close()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed: %s", res.failed, res.attempted, res.firstErr)
	}
	return d, nil
}

// span is one traced interval. Times are nanoseconds since the start of
// the traced pass; Parent is the index of the enclosing span in the trace
// file (-1 for a job span); spans of one job share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    uint64 `json:"job"`
}

// sample is one job's start and end, since the start of its pass.
type sample struct {
	start, end time.Duration
}

// client is one closed-loop load generator: a goroutine that runs one job
// at a time. Its fields are touched by that goroutine only.
type client struct {
	timer   *time.Timer
	scratch []byte // the copied-out result, reused across jobs
	stamps  []time.Duration

	samples     []sample
	spans       []span
	attempted   int
	failed      int
	firstErr    string
	workerBytes int64 // of verified jobs
	resultBytes int64 // Result.Parts bytes of verified jobs
	dataFrames  int64
}

func (c *client) fail(req uint64, err error) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("job %d: %v", req, err)
	}
}

// runJob drives one job through the public shim API: Submit, every
// worker's SendPartials in order, the wait on Pending.C under the
// workload's deadline, then the master application's part: fold
// Result.Parts, copy the result out and Release. Job latency covers all
// four; the byte comparison with the reference happens after the clock
// stops. With traced set it also stamps the clock around each call.
func (d *deployment) runJob(c *client, epoch time.Time, traced bool) {
	req := nextReq.Add(1)
	j := d.jobs[req%uint64(len(d.jobs))]
	c.attempted++
	st := c.stamps[:0]
	stamp := func() {
		if traced {
			st = append(st, time.Since(epoch))
		}
	}

	start := time.Since(epoch)
	stamp()
	pending, err := d.tb.Master.Submit(appName, req, d.hosts, 1)
	stamp()
	if err != nil {
		c.fail(req, err)
		return
	}
	for i, h := range d.hosts {
		stamp()
		err := d.tb.Workers[h].SendPartials(appName, req, i, testbed.MasterHost, j.parts[i], 1)
		stamp()
		if err != nil {
			c.fail(req, err)
			return
		}
	}

	stamp()
	c.timer.Reset(d.w.deadline)
	var resultBytes int64
	var merged []byte
	select {
	case res := <-pending.C:
		if !c.timer.Stop() {
			<-c.timer.C
		}
		stamp()
		stamp()
		if res.Err != nil {
			c.fail(req, res.Err)
			return
		}
		for _, p := range res.Parts {
			resultBytes += int64(len(p))
		}
		folded, err := foldParts(d.w.aggregator, res.Parts)
		if err != nil {
			res.Release()
			c.fail(req, err)
			return
		}
		// A single part is returned as is, still backed by the pooled
		// buffer Release recycles: the application copies out of it first.
		if len(res.Parts) == 1 {
			c.scratch = append(c.scratch[:0], folded...)
			folded = c.scratch
		}
		merged = folded
		res.Release()
	case <-c.timer.C:
		c.fail(req, fmt.Errorf("no result within %v", d.w.deadline))
		return
	}
	end := time.Since(epoch)
	stamp()

	if !bytes.Equal(merged, j.ref) {
		c.fail(req, fmt.Errorf("result (%d B) differs from the reference (%d B)", len(merged), len(j.ref)))
		return
	}
	c.samples = append(c.samples, sample{start, end})
	c.workerBytes += j.workerBytes
	c.resultBytes += resultBytes
	c.dataFrames += int64(j.dataFrames)
	if traced {
		c.stamps = st
		c.addSpans(req, start, end, st)
	}
}

// addSpans turns one job's stamps into its span and the four kinds of
// child: submit, one send_partials per worker, wait, merge. Each child has
// its own pair of stamps, so the children do not quite tile the job: what
// is left over is the harness's own cost between calls, reported as
// shim.unexplained_pct.
func (c *client) addSpans(req uint64, start, end time.Duration, st []time.Duration) {
	parent := len(c.spans)
	c.spans = append(c.spans, span{"job", int64(start), int64(end), -1, req})
	child := func(name string, i int) {
		c.spans = append(c.spans, span{name, int64(st[i]), int64(st[i+1]), parent, req})
	}
	child("submit", 0)
	n := len(st)
	for i := 2; i < n-4; i += 2 {
		child("send_partials", i)
	}
	child("wait", n-4)
	child("merge", n-2)
}

// passResult is what one measurement pass observed.
type passResult struct {
	epoch   time.Time     // when the pass began
	window  time.Duration // how long clients kept starting jobs
	elapsed time.Duration // until the last job in flight ended
	cpu     time.Duration // process user+sys CPU over elapsed

	samples     []sample
	spans       []span // parent indices already rebased to this slice
	attempted   int
	failed      int
	firstErr    string
	workerBytes int64
	resultBytes int64
	dataFrames  int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass runs the closed loop for window: each client starts its next job
// only after the previous one completed, and no job starts after the
// window closes. Untraced, the only clock reads are each job's start and
// end, and nothing else runs in this process beside the clients.
func (d *deployment) pass(window time.Duration, clients int, traced bool) passResult {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{timer: time.NewTimer(time.Hour)}
		if !cs[i].timer.Stop() {
			<-cs[i].timer.C
		}
	}
	cpu0 := cpuTime()
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(epoch) < window {
				d.runJob(c, epoch, traced)
			}
		}()
	}
	wg.Wait()
	res := passResult{epoch: epoch, window: window, elapsed: time.Since(epoch), cpu: cpuTime() - cpu0}
	for _, c := range cs {
		base := len(res.spans)
		for _, s := range c.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			res.spans = append(res.spans, s)
		}
		res.samples = append(res.samples, c.samples...)
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == "" {
			res.firstErr = c.firstErr
		}
		res.workerBytes += c.workerBytes
		res.resultBytes += c.resultBytes
		res.dataFrames += c.dataFrames
	}
	return res
}

// rates is the verified-job rate in each of five equal slices of the
// window.
func (r *passResult) rates() []float64 { return sliceRates(r.samples, r.window, 5) }

// jobsPerS is the median of the five slice rates, so one noisy-neighbour
// burst does not decide it.
func (r *passResult) jobsPerS() float64 { return median(r.rates()) }

// procState is what the traced pass diffs around itself.
type procState struct {
	obs   obs.Snapshot
	pool  bufpool.Stats
	mem   runtime.MemStats
	boxes []int64 // combines per box
}

func (d *deployment) readProc() procState {
	s := procState{obs: obs.Default.Snapshot(), pool: bufpool.ReadStats()}
	runtime.ReadMemStats(&s.mem)
	for _, b := range d.tb.Boxes {
		s.boxes = append(s.boxes, b.Stats().Combines)
	}
	return s
}

// sampled is what the 5 ms sampler saw during the traced pass.
type sampled struct {
	n          int
	depthSum   float64 // scheduler queue depth summed over boxes, per sample
	depthMax   float64
	flushUsSum float64 // mean flush-latency EWMA over boxes, per sample
	heapPeak   uint64
}

// pollBoxes reads every box's exported load signals and the heap size
// every 5 ms until stop is closed.
func (d *deployment) pollBoxes(stop <-chan struct{}) sampled {
	var s sampled
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return s
		case <-tick.C:
		}
		var depth, flush float64
		for _, b := range d.tb.Boxes {
			depth += float64(b.QueueDepth())
			flush += float64(b.FlushLatencyUs())
		}
		s.n++
		s.depthSum += depth
		if depth > s.depthMax {
			s.depthMax = depth
		}
		s.flushUsSum += flush / float64(len(d.tb.Boxes))
		metrics.Read(heap)
		if v := heap[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.heapPeak {
			s.heapPeak = v.Uint64()
		}
	}
}

// tracedPass runs a pass with the harness's spans on, the sampler running
// and every exported counter read before and after.
func (d *deployment) tracedPass(window time.Duration, clients int) (passResult, procState, procState, sampled) {
	stop := make(chan struct{})
	done := make(chan sampled, 1)
	go func() { done <- d.pollBoxes(stop) }()
	before := d.readProc()
	res := d.pass(window, clients, true)
	after := d.readProc()
	close(stop)
	return res, before, after, <-done
}

// closeAndDrain tears the deployment down and waits for the buffer pool's
// reference counts to balance: every pooled buffer taken since base must
// have been released once the fabric has drained.
func (d *deployment) closeAndDrain(base bufpool.Stats) error {
	d.tb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := bufpool.ReadStats()
		acq, rel := now.Acquires()-base.Acquires(), now.Releases-base.Releases
		if acq == rel {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bufpool unbalanced after drain: %d acquires, %d releases", acq, rel)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
