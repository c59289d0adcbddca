package shim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// Retained sends age out in send order: expiry pops the queue's expired
// prefix and nothing else, a key re-sent since keeps its newer send (its
// older one leaves the queue with the prefix it is in), the popped slots
// are cleared so the queue's backing array pins nothing, and a redirect
// for an expired request finds nothing to replay.
func TestWorkerRetentionExpiry(t *testing.T) {
	r := newRig(t, 0)
	w := r.workers["w0"]
	send := func(req uint64) *bufferedSend {
		t.Helper()
		if err := w.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.buffered[bufKey{"wc", req}]
	}
	retained := func(req uint64) *bufferedSend {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.buffered[bufKey{"wc", req}]
	}
	expire := func(now time.Time) {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.expireLocked(now)
	}

	send(1)
	send(2)
	young := send(3)
	resent := send(2) // overwrites request 2's entry; its first send stays queued behind request 1's
	w.mu.Lock()
	queue := w.expiry // shares the backing array with what expiry pops from
	w.mu.Unlock()
	if len(queue) != 4 {
		t.Fatalf("queue holds %d sends, want 4", len(queue))
	}

	// As of young's send time plus retention, exactly the two sends before
	// it are too old.
	expire(young.sentAt.Add(retention))
	if retained(1) != nil {
		t.Fatal("a send older than retention was kept")
	}
	if retained(3) != young {
		t.Fatal("a send younger than retention was dropped")
	}
	if retained(2) != resent {
		t.Fatal("popping a key's first send dropped its re-send")
	}
	if queue[0] != nil || queue[1] != nil {
		t.Fatal("popped sends are still pinned by the queue's backing array")
	}
	if queue[2] != young || queue[3] != resent {
		t.Fatal("expiry popped past the expired prefix")
	}

	// A redirect for the expired request is a no-op; one for a retained
	// request replays it.
	applied := obsRedirectsApplied.Value()
	w.applyRedirect(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: 1, Payload: wire.EncodeCount(1)})
	if got := obsRedirectsApplied.Value(); got != applied {
		t.Fatal("a redirect for an expired request was applied")
	}
	w.applyRedirect(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: 3, Payload: wire.EncodeCount(1)})
	if got := obsRedirectsApplied.Value(); got != applied+1 {
		t.Fatal("a redirect for a retained request was not applied")
	}

	expire(resent.sentAt.Add(retention + time.Second))
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buffered) != 0 || len(w.expiry) != 0 {
		t.Fatalf("after everything aged out: %d retained, %d queued", len(w.buffered), len(w.expiry))
	}
}

// runJobs runs requests first, first+1, ... n of them, one at a time: every
// worker sends one part, and each result must be the exact sum.
func runJobs(t *testing.T, r *rig, first uint64, n int, workers []string) {
	t.Helper()
	if err := runJobsErr(r, first, n, workers); err != nil {
		t.Fatal(err)
	}
}

// runJobsErr is runJobs for a goroutine that is not the test's.
func runJobsErr(r *rig, first uint64, n int, workers []string) error {
	for req := first; req < first+uint64(n); req++ {
		p, err := r.master.Submit("wc", req, workers, 1)
		if err != nil {
			return err
		}
		for i, w := range workers {
			if err := r.workers[w].SendPartials("wc", req, i, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
				return err
			}
		}
		var res Result
		select {
		case res = <-p.C:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("request %d did not complete", req)
		}
		if res.Err != nil {
			return fmt.Errorf("request %d: %w", req, res.Err)
		}
		if len(res.Parts) != 1 {
			return fmt.Errorf("request %d: %d parts, want 1", req, len(res.Parts))
		}
		kvs, err := agg.DecodeKVs(res.Parts[0])
		if err != nil || len(kvs) != 1 || kvs[0].Val != int64(len(workers)) {
			return fmt.Errorf("request %d: result %v (%v), want k = %d", req, kvs, err, len(workers))
		}
		res.Release()
	}
	return nil
}

// held reports how many sends the worker keeps: queued, and retained for
// a redirect.
func held(w *Worker) (queued, retained int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.expiry), len(w.buffered)
}

// waitHeld waits until the worker queues at most queued sends, of which
// it retains at most retained.
func waitHeld(t *testing.T, name string, w *Worker, queued, retained int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, b := held(w)
		if q <= queued && b <= retained {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s holds %d sends, %d retained; want at most %d, %d retained", name, q, b, queued, retained)
		}
		time.Sleep(time.Millisecond)
	}
}

// A worker holds what has not ended, not the last 30 s: after three full
// batches of requests, run by four clients at once, every worker has been
// told of all of them and holds fewer than a batch. Without notices it
// held every one.
func TestWorkerRetentionBoundedByNotices(t *testing.T) {
	const clients = 4
	r := newRig(t, 0)
	workers := []string{"w0", "w1", "w2", "w3"}
	notices := obsEndedNotices.Value()
	errs := make(chan error, clients)
	for c := uint64(0); c < clients; c++ {
		go func() { errs <- runJobsErr(r, 0xD000+c*0x100, 3*noticeBatch/clients, workers) }()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range workers {
		waitHeld(t, name, r.workers[name], noticeBatch-1, noticeBatch-1)
	}
	if got := obsEndedNotices.Value() - notices; got != int64(3*noticeBatch*len(workers)) {
		t.Fatalf("workers were told of %d endings, want %d", got, 3*noticeBatch*len(workers))
	}
}

// Error endings are noticed like successes: a batch of requests that
// end in Pending.Cancel or a box's TError leaves nothing at the one
// worker that had sent for them.
func TestErrorEndingsAreNoticed(t *testing.T) {
	r := newRig(t, 0)
	w0 := r.workers["w0"]
	for i := uint64(0); i < noticeBatch; i++ {
		req := 0xE000 + i
		// w1 never sends, so nothing but the error ends the request.
		p, err := r.master.Submit("wc", req, []string{"w0", "w1"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w0.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			p.Cancel()
		} else {
			r.master.handle(&wire.Msg{Type: wire.TError, App: "wc", Req: cluster.WireReq(req, 0, 0), Source: 42, Payload: []byte("boom")})
		}
		if res := waitResult2(t, p); res.Err == nil {
			t.Fatalf("request %d ended without an error", req)
		}
	}
	waitHeld(t, "w0", w0, 0, 0)
}

// On the worker, a notice drops exactly the sends it names: a redirect
// arriving after it finds nothing to replay; ids it does not hold —
// unknown, already expired, noticed twice, another application's — change
// nothing; and a malformed payload is dropped without a panic. Each
// control frame arrives as a connection delivers it, its payload in a
// pooled buffer, and the handler must give every buffer back.
func TestDoneNoticeAtWorker(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	w := r.workers["w0"]
	for req := uint64(1); req <= 3; req++ {
		if err := w.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(typ wire.Type, app string, req uint64, payload []byte) *wire.Msg {
		buf := bufpool.Get(len(payload))
		copy(buf.Bytes(), payload)
		return &wire.Msg{Type: typ, App: app, Req: req, Payload: buf.Bytes(), Buf: buf}
	}
	done := func(app string, payload []byte) {
		w.control(nil, frame(wire.TDone, app, 0, payload))
	}
	expect := func(queued, retained int) {
		t.Helper()
		if q, b := held(w); q != queued || b != retained {
			t.Fatalf("worker holds %d queued and %d retained sends, want %d and %d", q, b, queued, retained)
		}
	}

	done("wc", wire.EncodeIDs([]uint64{2}))
	expect(3, 2) // request 2 waits in the queue behind request 1
	applied := obsRedirectsApplied.Value()
	w.control(nil, frame(wire.TRedirect, "wc", 2, wire.EncodeCount(1)))
	if obsRedirectsApplied.Value() != applied {
		t.Fatal("a redirect after the notice replayed the request")
	}

	done("wc", wire.EncodeIDs([]uint64{2, 99}))
	done("other", wire.EncodeIDs([]uint64{1, 3}))
	done("wc", []byte{0xff})
	done("wc", append(wire.EncodeIDs([]uint64{1, 3}), 0))
	expect(3, 2)

	done("wc", wire.EncodeIDs([]uint64{1}))
	expect(1, 1) // request 1 and the noticed request 2 behind it leave the queue
	w.mu.Lock()
	w.expireLocked(time.Now().Add(2 * retention))
	w.mu.Unlock()
	done("wc", wire.EncodeIDs([]uint64{3}))
	expect(0, 0)
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// A reused id whose previous incarnation is still in an unsent batch is
// taken out of it by Submit: when that batch goes, the worker keeps the
// new incarnation's send.
func TestReusedIDLeavesUnsentBatch(t *testing.T) {
	r := newRig(t, 0)
	w0 := r.workers["w0"]
	const req = 0xF000
	workers := []string{"w0", "w1"}
	runJobs(t, r, req, 1, workers)
	p, err := r.master.Submit("wc", req, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
		t.Fatal(err)
	}
	// A full batch of other requests ends, and the batch is sent. The
	// queue cannot pop them yet: the pending request's send is at its head.
	runJobs(t, r, req+1, noticeBatch, workers)
	waitHeld(t, "w0", w0, 1+noticeBatch, 1)
	w0.mu.Lock()
	kept := w0.buffered[bufKey{"wc", req}] != nil
	w0.mu.Unlock()
	if !kept {
		t.Fatal("the previous incarnation's notice dropped the new incarnation's send")
	}
	if err := r.workers["w1"].SendPartials("wc", req, 1, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
		t.Fatal(err)
	}
	if got := sumResult(t, waitResult2(t, p))["k"]; got != 2 {
		t.Fatalf("k = %d, want 2", got)
	}
}

// A notice that had already left when its id was reused can arrive after
// the new incarnation has sent, and take that send's recovery copy. The
// cost is recovery, never the answer: when the request needs a redirect,
// the worker without a copy turns it away, and the request ends in an
// error once its attempts run out.
func TestLateNoticeCostsRecoveryNotCorrectness(t *testing.T) {
	r := newRig(t, 50*time.Millisecond)
	r.addBox(t, 4<<32, "tor:0") // somewhere for the redirects to go
	const req = 0xF100
	workers := []string{"w0", "w1"} // rack 0: tor:0 is their whole path
	p, err := r.master.Submit("wc", req, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	var used uint64
	for id := range p.boxes {
		used = id
	}
	p.mu.Unlock()
	// Attempt 0 cannot complete: its box is gone before anyone sends.
	for _, b := range r.boxes {
		if b.Addr() == mustBox(t, r.dep, used).Addr {
			b.Close()
		}
	}
	r.dep.MarkDead(used)
	for i, w := range workers {
		_ = r.workers[w].SendPartials("wc", req, i, "master", [][]byte{kvPart("k", 1)}, 1)
	}
	r.workers["w0"].control(nil, &wire.Msg{Type: wire.TDone, App: "wc", Payload: wire.EncodeIDs([]uint64{req})})
	res := waitResult2(t, p)
	if res.Err == nil {
		t.Fatalf("the request completed with parts %q although w0 had no copy to resend", res.Parts)
	}
	if !strings.Contains(res.Err.Error(), "failed after") {
		t.Fatalf("err = %v, want the attempt budget's error", res.Err)
	}
}

// A notice never holds up a result: with one worker's control listener
// closed, every job still completes, and that worker's three batches cost
// one failed dial and two sends refused inside its backoff — not a dial
// apiece.
func TestNoticeToUnreachableWorker(t *testing.T) {
	r := newRig(t, 0)
	// A backoff that outlasts the test, so the second and third notices
	// are refused whatever the host's speed.
	r.master.ctl.Close()
	r.master.ctl = transport.NewPool(transport.Options{Backoff: transport.Backoff{Min: time.Hour}})
	r.workers["w0"].ctl.Close()
	addr, _ := r.dep.ControlAddr("w0")
	runJobs(t, r, 0xF200, 3*noticeBatch, []string{"w0", "w1"})
	// The last batch goes after the last result was delivered.
	deadline := time.Now().Add(5 * time.Second)
	st := r.master.ctl.Get(addr).Stats()
	for st.DialFailures+st.BackoffSkips < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = r.master.ctl.Get(addr).Stats()
	}
	if st.DialFailures != 1 || st.BackoffSkips != 2 {
		t.Fatalf("three notices to a closed listener cost %d dials and %d backoff refusals, want 1 and 2", st.DialFailures, st.BackoffSkips)
	}
}
