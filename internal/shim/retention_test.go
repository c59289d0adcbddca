package shim

import (
	"testing"
	"time"

	"netagg/internal/wire"
)

// Retained sends age out in send order: expiry pops the queue's expired
// prefix and nothing else, a key re-sent since keeps its newer send, the
// popped slots are cleared so the queue's backing array pins nothing, and
// a redirect for an expired request finds nothing to replay.
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
	resent := send(1) // overwrites request 1's entry; its first send stays queued
	w.mu.Lock()
	queue := w.expiry // shares the backing array with what expiry pops from
	w.mu.Unlock()
	if len(queue) != 4 {
		t.Fatalf("queue holds %d sends, want 4", len(queue))
	}

	// As of young's send time plus retention, exactly the two sends before
	// it are too old.
	expire(young.sentAt.Add(retention))
	if retained(2) != nil {
		t.Fatal("a send older than retention was kept")
	}
	if retained(3) != young {
		t.Fatal("a send younger than retention was dropped")
	}
	if retained(1) != resent {
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
	w.applyRedirect(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: 2, Payload: wire.EncodeCount(1)})
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
