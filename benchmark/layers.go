package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/testbed"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// The layer pass times each module from outside, on one goroutine, with
// one pooled job's own partials and exported functions only. It is also
// the single-threaded baseline of the same job.

// workerReplayWindow is the replay window worker shims give their box
// connections (shim.WorkerConfig.ReplayWindow's default).
const workerReplayWindow = 128

// jobFrames builds the frames one job puts on the wire towards its first
// box, grouped as the shims hand them to the transport: the master's
// TExpect, then per worker THello + TData… + TEnd.
func jobFrames(j *job, wireReq uint64, route []string) (groups [][]*wire.Msg, frames int, payload int64) {
	groups = append(groups, []*wire.Msg{{
		Type: wire.TExpect, App: appName, Req: wireReq, Payload: wire.EncodeCount(len(j.parts)),
	}})
	hello := wire.EncodeStrings(route)
	for wk, parts := range j.parts {
		g := []*wire.Msg{{Type: wire.THello, App: appName, Req: wireReq, Source: uint64(wk), Payload: hello}}
		for seq, p := range parts {
			g = append(g, &wire.Msg{Type: wire.TData, App: appName, Req: wireReq, Source: uint64(wk), Seq: uint64(seq), Payload: p})
		}
		g = append(g, &wire.Msg{Type: wire.TEnd, App: appName, Req: wireReq, Source: uint64(wk), Seq: uint64(len(parts))})
		groups = append(groups, g)
	}
	for _, g := range groups {
		frames += len(g)
		for _, m := range g {
			payload += int64(len(m.Payload))
		}
	}
	return groups, frames, payload
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// repeat calls fn until budget has passed, at least once, and returns the
// number of calls and the time they took.
func repeat(budget time.Duration, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for {
		if err := fn(); err != nil {
			return n, time.Since(start), err
		}
		n++
		if el := time.Since(start); el >= budget {
			return n, el, nil
		}
	}
}

// loopReader serves the same bytes over and over, so one wire.Reader can
// decode a job's frames any number of times without being rebuilt.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// layerPass returns the layer-pass metrics of one workload, spending
// about budget in total. On an error it returns what it had measured.
func layerPass(d *deployment, budget time.Duration) (map[string]float64, error) {
	each := budget / 8
	j := d.jobs[0]
	m := make(map[string]float64)
	for _, step := range []func(*deployment, *job, time.Duration, map[string]float64) error{
		layerWire, layerBufpool, layerTransport, layerSched, layerTree, layerBox, layerAgg, layerPlan,
	} {
		if err := step(d, j, each, m); err != nil {
			return m, err
		}
	}
	return m, nil
}

func layerWire(_ *deployment, j *job, budget time.Duration, m map[string]float64) error {
	groups, frames, _ := jobFrames(j, cluster.WireReq(1, 0, 0), []string{"127.0.0.1:40000"})

	enc := wire.NewVectorWriter(io.Discard)
	writeJob := func(vw *wire.VectorWriter) error {
		for _, g := range groups {
			if _, err := vw.WriteBatch(g); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeJob(enc); err != nil { // grow the writer's scratch once
		return err
	}
	a0 := mallocs()
	n, el, err := repeat(budget/2, func() error { return writeJob(enc) })
	if err != nil {
		return fmt.Errorf("wire encode: %w", err)
	}
	encAllocs := float64(mallocs()-a0) / float64(n*frames)
	m["wire.encode_ns_per_frame"] = float64(el.Nanoseconds()) / float64(n*frames)

	var buf bytes.Buffer
	if err := writeJob(wire.NewVectorWriter(&buf)); err != nil {
		return err
	}
	rd := wire.NewReader(&loopReader{data: buf.Bytes()})
	var msg wire.Msg
	readJob := func() error {
		for i := 0; i < frames; i++ {
			if err := rd.ReadInto(&msg); err != nil {
				return err
			}
			msg.Release()
		}
		return nil
	}
	if err := readJob(); err != nil { // intern the app name, warm the pool
		return fmt.Errorf("wire decode: %w", err)
	}
	a0 = mallocs()
	n, el, err = repeat(budget/2, readJob)
	if err != nil {
		return fmt.Errorf("wire decode: %w", err)
	}
	m["wire.decode_ns_per_frame"] = float64(el.Nanoseconds()) / float64(n*frames)
	m["wire.allocs_per_frame"] = encAllocs + float64(mallocs()-a0)/float64(n*frames)
	return nil
}

// layerBufpool cycles Get/Release at the sizes the job moves: every part,
// and the result.
func layerBufpool(_ *deployment, j *job, budget time.Duration, m map[string]float64) error {
	sizes := []int{len(j.ref)}
	for _, p := range j.flatParts() {
		sizes = append(sizes, len(p))
	}
	n, el, _ := repeat(budget, func() error {
		for _, s := range sizes {
			bufpool.Get(s).Release()
		}
		return nil
	})
	m["bufpool.get_release_ns"] = float64(el.Nanoseconds()) / float64(n*len(sizes))
	return nil
}

// layerTransport streams the job's frames one way over loopback, from one
// Conn into a Listen sink that releases each frame.
func layerTransport(_ *deployment, j *job, budget time.Duration, m map[string]float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got atomic.Int64
	sink, err := transport.Listen(ctx, "127.0.0.1:0", func(_ *transport.ServerConn, msg *wire.Msg) {
		msg.Release()
		got.Add(1)
	}, transport.ServerOptions{})
	if err != nil {
		return fmt.Errorf("transport sink: %w", err)
	}
	defer sink.Close()
	conn := transport.NewConn(ctx, sink.Addr(), transport.Options{ReplayWindow: workerReplayWindow})
	defer conn.Close()

	groups, frames, payload := jobFrames(j, cluster.WireReq(1, 0, 0), []string{sink.Addr()})
	var blockedUs []float64
	sent := 0
	sendJob := func() error {
		for _, g := range groups {
			t0 := time.Now()
			if err := conn.SendAll(g); err != nil {
				return err
			}
			blockedUs = append(blockedUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		sent += frames
		return nil
	}
	drain := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for got.Load() < int64(sent) {
			if time.Now().After(deadline) {
				return fmt.Errorf("transport sink got %d of %d frames", got.Load(), sent)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	if err := sendJob(); err != nil { // dial
		return fmt.Errorf("transport: %w", err)
	}
	if err := drain(); err != nil {
		return err
	}
	blockedUs = blockedUs[:0]
	st0 := conn.Stats()
	start := time.Now()
	n, _, err := repeat(budget, sendJob)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if err := drain(); err != nil {
		return err
	}
	el := time.Since(start)
	st := conn.Stats()
	m["transport.ns_per_frame"] = float64(el.Nanoseconds()) / float64(n*frames)
	m["transport.mb_s"] = float64(n) * float64(payload) / 1e6 / el.Seconds()
	m["transport.frames_per_writev"] = ratio(float64(st.FramesOut-st0.FramesOut), float64(st.WritevCalls-st0.WritevCalls))
	m["transport.send_block_us_p99"] = percentile(blockedUs, 0.99)
	return nil
}

// layerSched measures submit→start of an empty task on an idle 4-worker
// scheduler: the wake-up a combine pays before it runs.
func layerSched(_ *deployment, _ *job, budget time.Duration, m map[string]float64) error {
	s := core.NewScheduler(core.SchedulerConfig{Workers: 4, Adaptive: true, Seed: 1})
	defer s.Close()
	s.Register(appName, 1)
	started := make(chan time.Duration, 1)
	var waits []float64
	_, _, err := repeat(budget, func() error {
		t0 := time.Now()
		if err := s.Submit(appName, func() { started <- time.Since(t0) }); err != nil {
			return err
		}
		waits = append(waits, float64((<-started).Nanoseconds()))
		return nil
	})
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	m["core.sched_dispatch_ns"] = median(waits)
	return nil
}

// layerTree feeds the job's parts to a LocalTree as pooled buffers and
// waits for its result: the box's aggregation without its network layer.
func layerTree(d *deployment, j *job, budget time.Duration, m map[string]float64) error {
	s := core.NewScheduler(core.SchedulerConfig{Workers: 4, Adaptive: true, Seed: 1})
	defer s.Close()
	s.Register(appName, 1)
	parts := j.flatParts()
	type outcome struct {
		buf *bufpool.Buf
		err error
	}
	done := make(chan outcome, 1)
	var combines, cut int64
	n, el, err := repeat(budget, func() error {
		tree := core.NewLocalTree(s, appName, d.w.aggregator, 64, func(b *bufpool.Buf, err error) { done <- outcome{b, err} })
		for _, p := range parts {
			b := bufpool.Get(len(p))
			copy(b.Bytes(), p)
			tree.Add(b)
		}
		tree.CloseInputs()
		out := <-done
		defer out.buf.Release()
		if out.err != nil {
			return out.err
		}
		if !bytes.Equal(out.buf.Bytes(), j.ref) {
			return fmt.Errorf("result differs from the reference")
		}
		combines += tree.Combines()
		cut += tree.CutThrough()
		return nil
	})
	if err != nil {
		return fmt.Errorf("local tree: %w", err)
	}
	m["core.tree_ms_per_job"] = el.Seconds() * 1e3 / float64(n)
	m["core.tree_cutthrough_ratio"] = ratio(float64(cut), float64(combines))
	return nil
}

// layerBox feeds one job to a lone box over one Conn, the route ending at
// a harness listener: first frame sent → result frame received.
func layerBox(d *deployment, j *job, budget time.Duration, m map[string]float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := agg.NewRegistry()
	reg.Register(appName, d.w.aggregator)
	box, err := core.Start(core.Config{ID: 1 << 32, Registry: reg, Workers: 4, SchedSeed: 1})
	if err != nil {
		return fmt.Errorf("box: %w", err)
	}
	defer box.Close()
	results := make(chan *wire.Msg, 1)
	sink, err := transport.Listen(ctx, "127.0.0.1:0", func(_ *transport.ServerConn, msg *wire.Msg) {
		results <- msg
	}, transport.ServerOptions{})
	if err != nil {
		return fmt.Errorf("box result sink: %w", err)
	}
	defer sink.Close()
	conn := transport.NewConn(ctx, box.Addr(), transport.Options{ReplayWindow: workerReplayWindow})
	defer conn.Close()

	route := []string{sink.Addr()}
	oneJob := func() error {
		groups, _, _ := jobFrames(j, cluster.WireReq(nextReq.Add(1), 0, 0), route)
		for _, g := range groups {
			if err := conn.SendAll(g); err != nil {
				return err
			}
		}
		select {
		case res := <-results:
			defer res.Release()
			if res.Type != wire.TResult {
				return fmt.Errorf("box answered with a %v frame: %s", res.Type, res.Payload)
			}
			if !bytes.Equal(res.Payload, j.ref) {
				return fmt.Errorf("result differs from the reference")
			}
			return nil
		case <-time.After(d.w.deadline):
			return fmt.Errorf("no result within %v", d.w.deadline)
		}
	}
	if err := oneJob(); err != nil { // dial both connections
		return fmt.Errorf("box: %w", err)
	}
	n, el, err := repeat(budget, oneJob)
	if err != nil {
		return fmt.Errorf("box: %w", err)
	}
	m["core.box_ms_per_job"] = el.Seconds() * 1e3 / float64(n)
	return nil
}

// layerAgg times the reference computation itself: the single-threaded
// Combine fold of the job's parts.
func layerAgg(d *deployment, j *job, budget time.Duration, m map[string]float64) error {
	parts := j.flatParts()
	a0 := mallocs()
	n, el, err := repeat(budget, func() error {
		out, err := foldParts(d.w.aggregator, parts)
		if err == nil && !bytes.Equal(out, j.ref) {
			err = fmt.Errorf("fold is not repeatable")
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("agg fold: %w", err)
	}
	kb := float64(j.workerBytes) / 1e3 * float64(n)
	m["agg.fold_ms_per_job"] = el.Seconds() * 1e3 / float64(n)
	m["agg.combine_ns_per_kb"] = float64(el.Nanoseconds()) / kb
	m["agg.combine_allocs_per_kb"] = float64(mallocs()-a0) / kb
	m["agg.fold_mb_s"] = kb / 1e3 / el.Seconds()
	return nil
}

// layerPlan times the master's plan of one tree over the full worker list.
func layerPlan(d *deployment, _ *job, budget time.Duration, m map[string]float64) error {
	planner := treeplan.OnPath{}
	req := uint64(0)
	n, el, _ := repeat(budget, func() error {
		req++
		planner.Plan(d.tb.Dep, treeplan.NewRequest(req, 0, 0, testbed.MasterHost, d.hosts))
		return nil
	})
	m["treeplan.plan_ns"] = float64(el.Nanoseconds()) / float64(n)
	return nil
}
