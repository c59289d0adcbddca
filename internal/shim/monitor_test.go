package shim

import (
	"context"
	"testing"
	"time"

	"netagg/internal/transport"
	"netagg/internal/wire"
)

// Duplicate redirects for the same attempt (straggler timer and failure
// monitor racing) must not make the worker replay the data twice.
func TestDuplicateRedirectIgnored(t *testing.T) {
	r := newRig(t, 0)
	if err := r.workers["w0"].SendPartials("wc", 60, 0, "master", [][]byte{kvPart("d", 1)}, 1); err != nil {
		t.Fatal(err)
	}
	p, err := r.master.Submit("wc", 61, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.workers["w0"].SendPartials("wc", 61, 0, "master", [][]byte{kvPart("d", 5)}, 1)
	r.workers["w1"].SendPartials("wc", 61, 1, "master", [][]byte{kvPart("d", 7)}, 1)
	res := waitResult2(t, p)
	if sumResult(t, res)["d"] != 12 {
		t.Fatalf("baseline broken: %v", res)
	}

	// Simulate two racing redirect frames for the same attempt; the worker
	// must apply exactly one. (The data goes to boxes keyed by a fresh
	// attempt id, so a correct single resend is invisible to request 61;
	// the worker's shim.redirects_applied counter is what sees it.)
	ctl, ok := r.dep.ControlAddr("w0")
	if !ok {
		t.Fatal("no control address")
	}
	applied := obsRedirectsApplied.Value()
	c := newCtl(t, ctl)
	for i := 0; i < 2; i++ {
		c(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: 61, Payload: wire.EncodeCount(1)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for obsRedirectsApplied.Value() == applied {
		if time.Now().After(deadline) {
			t.Fatal("neither redirect was applied")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let any (wrong) duplicate land
	if got := obsRedirectsApplied.Value() - applied; got != 1 {
		t.Fatalf("%d redirects applied for one attempt, want 1", got)
	}
}

// newCtl returns a sender on a fresh control connection.
func newCtl(t *testing.T, addr string) func(*wire.Msg) {
	t.Helper()
	c := transport.NewConn(context.Background(), addr, transport.Options{})
	t.Cleanup(c.Close)
	return func(m *wire.Msg) {
		t.Helper()
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
}
