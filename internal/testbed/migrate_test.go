package testbed

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/shim"
	"netagg/internal/treeplan"
)

// migParts is how many partial-result frames each worker streams in the
// migration tests: enough that the request is still mid-stream on the
// netem-paced boxes when the migration fires.
const migParts = 128

// sumParts merges a result's final parts and returns per-key totals.
func sumParts(t *testing.T, res shim.Result) map[string]int64 {
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

// TestMigrationExactlyOnceUnderCongestion is the tentpole's end-to-end
// proof on the live fabric: a request streams partials through
// netem-paced (congested) boxes; mid-stream, each box's hysteresis,
// stepped as the failure monitor steps it, detects the load the boxes
// report and migrates the request off the hot boxes. The
// attempt-epoch protocol must make the migration exactly-once — every
// buffered partial combined exactly once, none lost, none doubled — so
// every key's total must be exact, and the bufpool refcounts taken over
// the whole run must balance (run with -tags netaggdebug for the
// release-time ownership assertions on top).
func TestMigrationExactlyOnceUnderCongestion(t *testing.T) {
	before := bufpool.ReadStats()

	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	// Two boxes per switch so every hot box has a cold alternative;
	// EdgeGbps/BoxGbps/Scale pace every NIC to ~50 KB/s, so streaming
	// migParts frames per worker keeps the request in flight for tens of
	// milliseconds — plenty of loaded samples to score.
	tb, err := New(Config{
		Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 2, Registry: reg,
		EdgeGbps: 1, BoxGbps: 1, Scale: 500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Each box's congestion is scored as the monitor's prober scores it —
	// one Hysteresis per box, stepped against the sample a heartbeat echo
	// would have carried — but from the test, so detection is
	// deterministic and migration stops after the first congested pass
	// (the live loop could re-trip the replacement boxes and burn through
	// the attempt budget).
	var migrated atomic.Int64
	policy := treeplan.ReplanPolicy{HotLoadUs: 1, HotStreak: 1, CooldownTicks: 1 << 20}
	congestion := make([]treeplan.Hysteresis, len(tb.Boxes))
	heartbeat := func() {
		for i, b := range tb.Dep.Boxes() { // ordered by id, like tb.Boxes
			sig := treeplan.LoadSignal{QueueDepth: int64(tb.Boxes[i].QueueDepth()), FlushUs: tb.Boxes[i].FlushLatencyUs()}
			hot, changed, migrate := congestion[i].Step(policy, treeplan.LoadUs(sig))
			if changed {
				tb.Dep.MarkCongested(b.ID, hot)
			}
			if migrate {
				migrated.Add(int64(tb.Master.Supersede(b.ID, "migrate")))
			}
		}
	}

	const reqID = 0xD11A
	workers := tb.WorkerHosts()
	pending, err := tb.Master.Submit("wc", reqID, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker streams migParts frames; key kNNN is contributed once
	// by each worker with value i+1, so any lost partial lowers a key's
	// total and any double-combined one raises it: the sums below are
	// exact if and only if every partial was combined exactly once. Each
	// frame also carries a ~400-byte padding key unique to (worker,
	// frame) — it pushes the stream well past the NICs' token-bucket
	// burst so pacing actually bites, and its total must come out as
	// exactly 1, pinning per-frame exactly-once delivery too.
	errs := make(chan error, len(workers))
	for i, host := range workers {
		parts := make([][]byte, migParts)
		for j := range parts {
			parts[j] = agg.EncodeKVs([]agg.KV{
				{Key: fmt.Sprintf("k%03d", j), Val: int64(i + 1)},
				{Key: fmt.Sprintf("pad-%d-%03d-%0400d", i, j, 0), Val: 1},
			})
		}
		go func(host string, i int) {
			errs <- tb.Workers[host].SendPartials("wc", reqID, i, MasterHost, parts, 1)
		}(host, i)
	}

	// Beat until the telemetry-driven hysteresis fires a migration. The
	// paced boxes report queue depth and flush latency as soon as frames
	// arrive, so with a 1-unit threshold the first loaded sample trips.
	deadline := time.Now().Add(10 * time.Second)
	var res shim.Result
	completed := false
	for migrated.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("congestion scoring never migrated the in-flight request")
		}
		select {
		case res = <-pending.C:
			completed = true
		default:
		}
		if completed {
			t.Fatal("request completed before any loaded sample; widen the pacing window")
		}
		heartbeat()
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case res = <-pending.C:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete after migration")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Attempts < 1 {
		t.Fatalf("result reports %d attempts; the migration must have re-armed the request", res.Attempts)
	}
	totals := sumParts(t, res)
	want := int64(0)
	for i := range workers {
		want += int64(i + 1)
	}
	if wantKeys := migParts + len(workers)*migParts; len(totals) != wantKeys {
		t.Fatalf("result has %d keys, want %d", len(totals), wantKeys)
	}
	for j := 0; j < migParts; j++ {
		key := fmt.Sprintf("k%03d", j)
		if totals[key] != want {
			t.Fatalf("key %s total = %d, want %d: a partial was lost or double-combined", key, totals[key], want)
		}
		for i := range workers {
			pad := fmt.Sprintf("pad-%d-%03d-%0400d", i, j, 0)
			if totals[pad] != 1 {
				t.Fatalf("padding key worker %d frame %d total = %d, want exactly 1", i, j, totals[pad])
			}
		}
	}
	for i := 0; i < len(workers); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res.Release()

	// Every pooled buffer taken during the run — including the superseded
	// attempt's partials on the cancelled boxes and the replayed frames —
	// must be released once the deployment drains.
	tb.Close()
	balDeadline := time.Now().Add(10 * time.Second)
	for {
		after := bufpool.ReadStats()
		acq := after.Acquires() - before.Acquires()
		rels := after.Releases - before.Releases
		if acq == rels {
			break
		}
		if time.Now().After(balDeadline) {
			t.Fatalf("bufpool refcounts unbalanced after migration: %d acquires vs %d releases", acq, rels)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("migrations=%d attempts=%d", migrated.Load(), res.Attempts)
}
