package testbed

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/obs"
	"netagg/internal/treeplan"
)

// runs numbers this process's runs of the tests that read a request's
// trace: the tracer is process-wide, so -count reruns must not share one.
var runs atomic.Uint64

// TestControlLoopRecoversFromBoxFailure is the full failure pipeline, as
// StartControl wires it: the heartbeat stops being answered, the monitor
// declares the box dead, and its hook supersedes the request routed
// through it at once — long before the straggler timer — leaving the
// reason on the new attempt's trace.
func TestControlLoopRecoversFromBoxFailure(t *testing.T) {
	tb := wcTestbed(t, Config{
		Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 1,
		StragglerTimeout: 30 * time.Second, // recovery must come from the monitor
	})
	stop := tb.StartControl(t.Context(), 30*time.Millisecond, treeplan.ReplanPolicy{})

	reqID := 0xC0A100 + runs.Add(1)
	workers := tb.WorkerHosts()[2:] // rack 1: tor:1, then agg:0, then tor:0
	pending, err := tb.Master.Submit("wc", reqID, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the aggregation-switch box after submission, once the monitor
	// has heard from it; the workers send into the now-broken chain.
	dead := tb.Dep.Boxes()[2]
	if dead.Switch != "agg:0" {
		t.Fatalf("box %d sits at %s, want agg:0", dead.ID, dead.Switch)
	}
	for deadline := time.Now().Add(5 * time.Second); tb.Dep.LastSeen(dead.ID).IsZero(); {
		if time.Now().After(deadline) {
			t.Fatal("the monitor never heard from the box")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Boxes[2].Close()
	for i, host := range workers {
		part := agg.EncodeKVs([]agg.KV{{Key: "m", Val: 3}})
		if err := tb.Workers[host].SendPartials("wc", reqID, i, MasterHost, [][]byte{part}, 1); err != nil {
			t.Fatal(err)
		}
	}
	res := <-pending.C
	if got := sumParts(t, res)["m"]; got != 6 || res.Attempts == 0 {
		t.Fatalf("m = %d after %d attempts, want 6 (no loss, no duplication) on a recovery attempt", got, res.Attempts)
	}
	if !tb.Dep.Dead(dead.ID) {
		t.Fatal("the monitor should have marked the box dead")
	}
	tr, _ := obs.DefaultTracer.Lookup(cluster.WireReq(reqID, 0, 1), "wc")
	if n := spanCount(tr, "failover"); n != 1 || spanCount(tr, "straggler") != 0 {
		t.Fatalf("attempt 1's trace has %d failover spans, want exactly one and no straggler: %+v", n, tr.Spans)
	}
	for _, s := range tr.Spans {
		if s.Hop == "failover" && s.Node != fmt.Sprintf("box:%d", dead.ID) {
			t.Fatalf("failover span names %s, want the dead box %d", s.Node, dead.ID)
		}
	}
	res.Release()
	stop() // the suite's leak gate checks the probers are gone
}

// TestControlLoopQuietFleet covers the hysteresis' quiet side on the live
// loop: a deployment whose boxes stay under the congestion threshold is
// scored on every heartbeat, completes a request with zero migrations, and
// Close alone stops the loop. The threshold is not the default 20 ms: a
// box's load is its last flush latency plus its heartbeat RTT, and on a
// busy two-core host under -race one job leaves boxes reading 22-28 ms
// (flush 13-16 ms, RTT 8-12 ms), which the default policy migrates.
func TestControlLoopQuietFleet(t *testing.T) {
	tb := wcTestbed(t, Config{Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 2, Seed: 3})
	scored, migrations := obs.C("replan.ticks"), obs.C("replan.migrations")
	scoredBefore, migrationsBefore := scored.Value(), migrations.Value()
	tb.StartControl(t.Context(), 20*time.Millisecond, treeplan.ReplanPolicy{HotLoadUs: 500_000})

	const reqID = 0xD11B
	pending, err := tb.Master.Submit("wc", reqID, tb.WorkerHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := finishJob(t, tb, reqID, pending)
	if got := sumParts(t, res)["k"]; got != 10 || res.Attempts != 0 {
		t.Fatalf("k = %d after %d attempts, want 10 on the first", got, res.Attempts)
	}
	res.Release()

	// Every box's sample is scored, heartbeat after heartbeat.
	deadline := time.Now().Add(5 * time.Second)
	for scored.Value()-scoredBefore < int64(3*len(tb.Boxes)) {
		if time.Now().After(deadline) {
			t.Fatalf("the loop scored %d samples of %d boxes in 5 s", scored.Value()-scoredBefore, len(tb.Boxes))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := migrations.Value() - migrationsBefore; n != 0 {
		var loads []uint8
		for _, sw := range []string{"tor:0", "tor:1", "agg:0"} {
			for _, b := range tb.Dep.BoxesAt(sw) {
				loads = append(loads, b.Load)
			}
		}
		t.Fatalf("a quiet fleet migrated %d times (box loads now in buckets %v: bucket n is under 2ⁿ µs)", n, loads)
	}
}
