package shim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/wire"
)

// rig is a complete in-process NetAgg deployment: two racks, one box per
// ToR plus one at the aggregation switch, worker shims on every host, and a
// master shim (the paper's testbed shape, §4.2).
type rig struct {
	dep     *cluster.Deployment
	boxes   []*core.Box
	workers map[string]*Worker
	master  *Master
}

func newRig(t *testing.T, stragglerTimeout time.Duration) *rig {
	t.Helper()
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})

	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	hosts := []cluster.Host{
		{Name: "w0", Rack: 0, Pod: 0},
		{Name: "w1", Rack: 0, Pod: 0},
		{Name: "w2", Rack: 1, Pod: 0},
		{Name: "w3", Rack: 1, Pod: 0},
	}
	for _, h := range hosts {
		dep.AddHost(h)
	}

	r := &rig{dep: dep, workers: make(map[string]*Worker)}
	for i, sw := range []string{"tor:0", "tor:1", "agg:0"} {
		box, err := core.Start(core.Config{
			ID:        uint64(i+1) << 32,
			Registry:  reg,
			Workers:   2,
			SchedSeed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.boxes = append(r.boxes, box)
		dep.AddBox(cluster.BoxInfo{ID: uint64(i+1) << 32, Addr: box.Addr(), Switch: sw})
	}

	for _, h := range hosts {
		w, err := NewWorker(WorkerConfig{Host: h, Deployment: dep})
		if err != nil {
			t.Fatal(err)
		}
		r.workers[h.Name] = w
	}
	master, err := NewMaster(MasterConfig{
		Host:             cluster.Host{Name: "master", Rack: 0, Pod: 0},
		Deployment:       dep,
		StragglerTimeout: stragglerTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.master = master
	t.Cleanup(r.close)
	return r
}

func (r *rig) close() {
	r.master.Close()
	for _, w := range r.workers {
		w.Close()
	}
	for _, b := range r.boxes {
		b.Close()
	}
}

// tracedReq hands out request ids for tests that read the process-wide
// tracer: a reused id would find the previous run's trace (-count=3).
var tracedReq atomic.Uint64

func nextTracedReq() uint64 { return 0x7E5700 + tracedReq.Add(1) }

func kvPart(key string, val int64) []byte {
	return agg.EncodeKVs([]agg.KV{{Key: key, Val: val}})
}

// sumResult merges the final parts the master received (the application's
// final aggregation step) and returns the per-key totals.
func sumResult(t *testing.T, res Result) map[string]int64 {
	t.Helper()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	totals := map[string]int64{}
	for _, part := range res.Parts {
		if len(part) == 0 {
			continue
		}
		kvs, err := agg.DecodeKVs(part)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			totals[kv.Key] += kv.Val
		}
	}
	return totals
}

func waitResult2(t *testing.T, p *Pending) Result {
	t.Helper()
	select {
	case res := <-p.C:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("request did not complete")
		return Result{}
	}
}

func TestEndToEndAggregation(t *testing.T) {
	r := newRig(t, 0)
	workers := []string{"w0", "w1", "w2", "w3"}
	p, err := r.master.Submit("wc", 1, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range workers {
		if err := r.workers[name].SendPartials("wc", 1, i, "master", [][]byte{
			kvPart("word", 10),
			kvPart(fmt.Sprintf("unique-%s", name), 1),
		}, 1); err != nil {
			t.Fatal(err)
		}
	}
	res := waitResult2(t, p)
	totals := sumResult(t, res)
	if totals["word"] != 40 {
		t.Fatalf("word total = %d, want 40", totals["word"])
	}
	if len(totals) != 5 {
		t.Fatalf("expected 5 distinct keys, got %v", totals)
	}
	// A full deployment aggregates everything into a single result.
	if len(res.Parts) != 1 {
		t.Fatalf("parts = %d, want 1 fully aggregated result", len(res.Parts))
	}
	// A part no frame can carry is the application's error, returned by the
	// send that offered it over the by now established connection — not
	// accepted and left to wedge the worker's connection to its box.
	huge := [][]byte{make([]byte, wire.MaxPayload+1)}
	if err := r.workers["w0"].SendPartials("wc", 2, 0, "master", huge, 1); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize part = %v, want wire.ErrTooLarge", err)
	}
}

func TestEndToEndNoBoxes(t *testing.T) {
	// Plain mode: empty deployment of boxes → direct delivery; the master
	// receives every worker's raw parts.
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master", Rack: 0})
	dep.AddHost(cluster.Host{Name: "w0", Rack: 0})
	dep.AddHost(cluster.Host{Name: "w1", Rack: 1})
	w0, err := NewWorker(WorkerConfig{Host: cluster.Host{Name: "w0", Rack: 0}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := NewWorker(WorkerConfig{Host: cluster.Host{Name: "w1", Rack: 1}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	master, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master", Rack: 0}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	p, err := master.Submit("wc", 2, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w0.SendPartials("wc", 2, 0, "master", [][]byte{kvPart("x", 1)}, 1)
	w1.SendPartials("wc", 2, 1, "master", [][]byte{kvPart("x", 2)}, 1)
	res := waitResult2(t, p)
	totals := sumResult(t, res)
	if totals["x"] != 3 {
		t.Fatalf("x total = %d, want 3", totals["x"])
	}
	if len(res.Parts) != 2 {
		t.Fatalf("parts = %d, want 2 raw parts", len(res.Parts))
	}
}

func TestEndToEndMultipleTrees(t *testing.T) {
	r := newRig(t, 0)
	workers := []string{"w0", "w2"}
	p, err := r.master.Submit("wc", 3, workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]byte{kvPart("a", 1), kvPart("b", 2), kvPart("c", 3), kvPart("d", 4)}
	for i, name := range workers {
		if err := r.workers[name].SendPartials("wc", 3, i, "master", parts, 2); err != nil {
			t.Fatal(err)
		}
	}
	res := waitResult2(t, p)
	totals := sumResult(t, res)
	for key, want := range map[string]int64{"a": 2, "b": 4, "c": 6, "d": 8} {
		if totals[key] != want {
			t.Fatalf("%s total = %d, want %d (totals %v)", key, totals[key], want, totals)
		}
	}
}

func TestEndToEndConcurrentRequests(t *testing.T) {
	r := newRig(t, 0)
	workers := []string{"w0", "w1", "w2", "w3"}
	const n = 20
	pendings := make([]*Pending, n)
	for reqID := 0; reqID < n; reqID++ {
		p, err := r.master.Submit("wc", uint64(100+reqID), workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		pendings[reqID] = p
	}
	for reqID := 0; reqID < n; reqID++ {
		for i, name := range workers {
			go r.workers[name].SendPartials("wc", uint64(100+reqID), i, "master",
				[][]byte{kvPart("k", int64(reqID))}, 1)
		}
	}
	for reqID := 0; reqID < n; reqID++ {
		totals := sumResult(t, waitResult2(t, pendings[reqID]))
		if want := int64(reqID) * 4; totals["k"] != want {
			t.Fatalf("request %d: k = %d, want %d", reqID, totals["k"], want)
		}
	}
}

// Failure recovery: kill a box mid-deployment; the straggler timer replans
// around it and the workers resend (§3.1).
func TestEndToEndBoxFailureRecovery(t *testing.T) {
	r := newRig(t, 400*time.Millisecond)
	workers := []string{"w2", "w3"} // rack 1: chain via tor:1 → agg:0 → tor:0

	// Kill the aggregation-switch box and mark it dead only after workers
	// already sent (simulating a crash between planning and aggregation).
	p, err := r.master.Submit("wc", 4, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.boxes[2].Close() // agg:0 box
	for i, name := range workers {
		r.workers[name].SendPartials("wc", 4, i, "master", [][]byte{kvPart("v", 5)}, 1)
	}
	// The first attempt stalls; the monitor would normally mark the box
	// dead — do it manually here, then let the straggler timer redirect.
	r.dep.MarkDead(3 << 32)

	res := waitResult2(t, p)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Attempts == 0 {
		t.Fatal("expected at least one recovery attempt")
	}
	totals := sumResult(t, res)
	if totals["v"] != 10 {
		t.Fatalf("v total = %d, want 10 (no loss, no duplication)", totals["v"])
	}
}

// Straggler handling: recovery must not duplicate data when the first
// attempt eventually completes too (the master ignores stale attempts).
func TestEndToEndStaleAttemptIgnored(t *testing.T) {
	r := newRig(t, 150*time.Millisecond)
	workers := []string{"w0", "w1"}
	p, err := r.master.Submit("wc", 5, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First worker sends immediately; the second is a straggler beyond the
	// timeout, so attempt 1 fires and both resend.
	r.workers["w0"].SendPartials("wc", 5, 0, "master", [][]byte{kvPart("s", 1)}, 1)
	time.Sleep(300 * time.Millisecond)
	r.workers["w1"].SendPartials("wc", 5, 1, "master", [][]byte{kvPart("s", 2)}, 1)

	res := waitResult2(t, p)
	totals := sumResult(t, res)
	if totals["s"] != 3 {
		t.Fatalf("s total = %d, want exactly 3 (stale attempts ignored)", totals["s"])
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	r := newRig(t, 0)
	if _, err := r.master.Submit("wc", 6, []string{"w0"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.master.Submit("wc", 6, []string{"w0"}, 1); err == nil {
		t.Fatal("duplicate request id must be rejected")
	}
}

// A worker the deployment does not know has no path to plan a tree on:
// Submit refuses it before it plans, and the request is not pending.
func TestSubmitUnknownWorkerRefused(t *testing.T) {
	r := newRig(t, 0)
	if _, err := r.master.Submit("wc", 1, []string{"nosuch"}, 1); err == nil {
		t.Fatal("Submit accepted a worker host the deployment does not know")
	}
	r.master.mu.Lock()
	pending := len(r.master.pending)
	r.master.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d requests pending after a refused Submit, want 0", pending)
	}
}

// The wire id keeps a request id in 56 bits. A larger one would reach the
// master's table with its top bits lost, under an id that matches no
// request, so both ends of the shim refuse it; the largest that fits
// completes.
func TestRequestIDsBeyondTheWireAreRefused(t *testing.T) {
	r := newRig(t, 0)
	workers := []string{"w0", "w1"}
	if _, err := r.master.Submit("wc", cluster.MaxReq+1, workers, 1); err == nil {
		t.Fatal("Submit accepted a request id the wire cannot carry")
	}
	if err := r.workers["w0"].SendPartials("wc", cluster.MaxReq+1, 0, "master", [][]byte{kvPart("k", 1)}, 1); err == nil {
		t.Fatal("SendPartials accepted a request id the wire cannot carry")
	}
	p, err := r.master.Submit("wc", cluster.MaxReq, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if err := r.workers[w].SendPartials("wc", cluster.MaxReq, i, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if totals := sumResult(t, waitResult2(t, p)); totals["k"] != 2 {
		t.Fatalf("k total = %d, want 2", totals["k"])
	}
}

// The wire id keeps a tree index in 4 bits, so both ends of the shim refuse
// more than cluster.MaxTrees trees. A refused send reaches no box: the one
// request sent after it on the same connections is all the boxes read.
func TestTreesBeyondTheWireAreRefused(t *testing.T) {
	r := newRig(t, 0)
	part := kvPart("k", 1)
	if _, err := r.master.Submit("wc", 8, []string{"w0"}, cluster.MaxTrees+1); err == nil {
		t.Fatal("Submit accepted more trees than the wire can carry")
	}
	if err := r.workers["w0"].SendPartials("wc", 8, 0, "master", [][]byte{part}, cluster.MaxTrees+1); err == nil {
		t.Fatal("SendPartials accepted more trees than the wire can carry")
	}
	p, err := r.master.Submit("wc", 9, []string{"w0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.workers["w0"].SendPartials("wc", 9, 0, "master", [][]byte{part}, 1); err != nil {
		t.Fatal(err)
	}
	if totals := sumResult(t, waitResult2(t, p)); totals["k"] != 1 {
		t.Fatalf("k total = %d, want 1", totals["k"])
	}
	var in int64
	for _, b := range r.boxes {
		in += b.Stats().BytesIn
	}
	if in != int64(len(part)) {
		t.Fatalf("boxes read %d payload bytes, want %d: the refused send reached them", in, len(part))
	}
}

func TestMasterCloseFailsPending(t *testing.T) {
	r := newRig(t, 0)
	p, err := r.master.Submit("wc", 7, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.master.Close()
	res := waitResult2(t, p)
	if res.Err == nil {
		t.Fatal("pending request must fail on master close")
	}
}
