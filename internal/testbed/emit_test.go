package testbed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/shim"
	"netagg/internal/wire"
)

// TestRackAggregateOverOneMiBCrossesBoxes pins the box→box emit on the
// path multi-level trees stand on (§3.2.1): a rack's aggregate travels to
// the next box as one well-formed part, whatever its size under the frame
// limit. Four workers in two racks each send 1.2 MB of keys nobody else
// has, so nothing reduces and each ToR box forwards over 2 MiB to the
// aggregation-switch box — which, when the emit cut that at 1 MiB byte
// offsets, was handed the pieces as parts and failed the job with
// "agg: malformed payload".
func TestRackAggregateOverOneMiBCrossesBoxes(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	tb, err := New(Config{Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 1, Registry: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	const (
		reqID       = 0xB16
		partsEach   = 10
		keysPerPart = 1000
	)
	key := func(worker, part, k int) string { return fmt.Sprintf("w%d-p%02d-k%04d-%0110d", worker, part, k, 0) }
	val := func(worker, part, k int) int64 { return int64(worker*1_000_000 + part*10_000 + k + 1) }

	workers := tb.WorkerHosts()
	pending, err := tb.Master.Submit("wc", reqID, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range workers {
		parts := make([][]byte, partsEach)
		sent := 0
		for p := range parts {
			kvs := make([]agg.KV, keysPerPart)
			for k := range kvs {
				kvs[k] = agg.KV{Key: key(i, p, k), Val: val(i, p, k)}
			}
			parts[p] = agg.EncodeKVs(kvs)
			sent += len(parts[p])
		}
		if sent < 1_200_000 {
			t.Fatalf("worker %d sends %d bytes, want at least 1.2 MB", i, sent)
		}
		if err := tb.Workers[host].SendPartials("wc", reqID, i, MasterHost, parts, 1); err != nil {
			t.Fatal(err)
		}
	}

	var res shim.Result
	select {
	case res = <-pending.C:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete")
	}
	defer res.Release()
	totals := sumParts(t, res)
	if want := len(workers) * partsEach * keysPerPart; len(totals) != want {
		t.Fatalf("result has %d keys, want %d", len(totals), want)
	}
	for i := range workers {
		for p := 0; p < partsEach; p++ {
			for k := 0; k < keysPerPart; k++ {
				if got := totals[key(i, p, k)]; got != val(i, p, k) {
					t.Fatalf("key %s = %d, want %d exactly once", key(i, p, k), got, val(i, p, k))
				}
			}
		}
	}
}

// TestAggregateOverFrameLimitFailsTheJob pins what happens to an
// aggregate no frame can carry: the box reports it to the master, so the
// job ends at once in an error naming the size and the limit — with no
// straggler timer configured it used to hang for ever — and every pooled
// buffer of the abandoned job is released.
func TestAggregateOverFrameLimitFailsTheJob(t *testing.T) {
	before := bufpool.ReadStats()

	reg := agg.NewRegistry()
	reg.Register("sort", agg.Concat{})
	tb, err := New(Config{Racks: 1, WorkersPerRack: 2, BoxesPerSwitch: 1, Registry: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Nothing reduces under Concat: 2 workers × 9 parts × 1 MiB > 16 MiB.
	part := agg.EncodeItems([][]byte{make([]byte, 1<<20)})
	parts := make([][]byte, 9)
	for i := range parts {
		parts[i] = part
	}
	workers := tb.WorkerHosts()
	pending, err := tb.Master.Submit("sort", 7, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range workers {
		if err := tb.Workers[host].SendPartials("sort", 7, i, MasterHost, parts, 1); err != nil {
			t.Fatal(err)
		}
	}
	sent := time.Now()
	select {
	case res := <-pending.C:
		limit := fmt.Sprint(wire.MaxPayload)
		if res.Err == nil || !strings.Contains(res.Err.Error(), "exceeds the frame limit of "+limit) {
			t.Fatalf("result error = %v, want one naming the frame limit %s", res.Err, limit)
		}
		res.Release()
	case <-time.After(10 * time.Second):
		t.Fatal("a job whose aggregate no frame can carry never ended")
	}
	t.Logf("failed %v after the last send", time.Since(sent).Round(time.Millisecond))

	tb.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		after := bufpool.ReadStats()
		acq, rels := after.Acquires()-before.Acquires(), after.Releases-before.Releases
		if acq == rels {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bufpool refcounts unbalanced after the failed job: %d acquires vs %d releases", acq, rels)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// boom is an aggregation function that panics on every merge.
type boom struct{}

func (boom) Merge([]byte, [][]byte) ([]byte, error) { panic("malicious aggregation function") }

func (b boom) Combine(x, y []byte) ([]byte, error) { return b.Merge(nil, [][]byte{x, y}) }

// TestRefusedRequestFailsTheJob pins fault isolation end to end (§3.2.1):
// a box that will not run a request — its application quarantined after
// repeated crashes, or never registered — says so to the master, so the
// job ends in an error naming the reason at once, where it used to get no
// answer at all (there is no straggler timer here to rescue it).
func TestRefusedRequestFailsTheJob(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("boom", boom{})
	tb, err := New(Config{Racks: 1, WorkersPerRack: 2, BoxesPerSwitch: 1, Registry: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	for _, tc := range []struct {
		app  string
		req  uint64
		want string
	}{
		{"boom", 1, "panicked"},
		{"boom", 2, "panicked"},
		{"boom", 3, "quarantined after repeated crashes"},
		{"boom", 4, `application "boom" is quarantined`},
		{"nobody-registered-this", 5, `unknown application "nobody-registered-this"`},
	} {
		workers := tb.WorkerHosts()
		pending, err := tb.Master.Submit(tc.app, tc.req, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, host := range workers {
			part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})
			if err := tb.Workers[host].SendPartials(tc.app, tc.req, i, MasterHost, [][]byte{part}, 1); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case res := <-pending.C:
			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) {
				t.Fatalf("request %d: err = %v, want one naming %q", tc.req, res.Err, tc.want)
			}
		case <-time.After(time.Second):
			t.Fatalf("request %d (%s): no result after a second", tc.req, tc.app)
		}
	}
}
