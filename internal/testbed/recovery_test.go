package testbed

import (
	"fmt"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/obs"
	"netagg/internal/shim"
	"netagg/internal/testutil"
)

// TestResendCostOfALostWorkerConnection measures what one lost worker→box
// connection costs on a mapred_kv-shaped load: each worker's partial
// result is 29 sorted parts of 512 pairs (~6 KB a part), and the workers
// have finished 63 jobs through the box, the most a worker holds before
// the master's next TDone ends them. The relay in front of the box is cut
// with all of them done: every worker sends each retained stream again,
// whole. The test logs the bytes that crossed the relay again per
// connection beside what the last 128 frames of the connection held.
func TestResendCostOfALostWorkerConnection(t *testing.T) {
	const (
		workers = 2
		jobs    = 63 // noticeBatch − 1: none of them noticed yet
		parts   = 29
		pairs   = 512
	)
	tb := wcTestbed(t, Config{Racks: 1, WorkersPerRack: workers, BoxesPerSwitch: 1})
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	box, err := core.Start(core.Config{ID: 2 << 32, Registry: reg, Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(box.Close)
	front := testutil.NewRelay(t, box.Addr())
	tb.Dep.AddBox(cluster.BoxInfo{ID: 2 << 32, Addr: front.Addr(), Switch: "tor:0"})
	tb.Dep.MarkCongested(1<<32, true)

	stream := make([][]byte, parts)
	var streamBytes int64
	for p := range stream {
		kvs := make([]agg.KV, pairs)
		for i := range kvs {
			kvs[i] = agg.KV{Key: fmt.Sprintf("word%06d", p*pairs+i), Val: 1}
		}
		stream[p] = agg.EncodeKVs(kvs)
		streamBytes += int64(len(stream[p]))
	}
	hosts := tb.WorkerHosts()
	for j := 0; j < jobs; j++ {
		req := uint64(0xC0570000 + j)
		pending, err := tb.Master.Submit("wc", req, hosts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hosts {
			if err := tb.Workers[h].SendPartials("wc", req, i, MasterHost, stream, 1); err != nil {
				t.Fatal(err)
			}
		}
		var res shim.Result
		select {
		case res = <-pending.C:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d did not complete", j)
		}
		totals := sumParts(t, res)
		if len(totals) != parts*pairs || totals["word000000"] != workers {
			t.Fatalf("job %d: %d keys, word000000 = %d; want %d keys of %d", j, len(totals), totals["word000000"], parts*pairs, workers)
		}
		res.Release()
	}

	resent := func() int64 { return obs.Default.Snapshot().Counters["shim.resent_streams"] }
	streamsBefore, read, bytesIn := resent(), front.BytesRead(), box.Stats().BytesIn
	front.Cut()
	testutil.WaitFor(t, "every retained stream re-sent and taken in", func() bool {
		return resent()-streamsBefore == workers*jobs && box.Stats().BytesIn-bytesIn == workers*jobs*streamBytes
	})
	perConn := (front.BytesRead() - read) / workers
	// A stream is a THello, the parts and a TEnd: the last 128 frames are
	// four whole streams and the last three parts and TEnd of a fifth.
	window := 4*streamBytes + int64(len(stream[parts-1])+len(stream[parts-2])+len(stream[parts-3]))
	t.Logf("a lost worker→box connection with %d jobs retained re-sent %d streams, %.2f MB on the wire (%.0f kB a stream); a 128-frame window held %.0f kB of parts",
		jobs, jobs, float64(perConn)/1e6, float64(perConn)/jobs/1e3, float64(window)/1e3)
	if perConn < jobs*streamBytes {
		t.Fatalf("%d bytes crossed the relay again per connection, under the %d of the retained parts", perConn, jobs*streamBytes)
	}
}
