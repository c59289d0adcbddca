package shim

import (
	"context"
	"testing"
	"time"

	"netagg/internal/cluster"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// Full failure pipeline: a cluster.Monitor detects a crashed box, marks it
// dead, and the master shim immediately redirects the affected pending
// request instead of waiting for the straggler timeout.
func TestMonitorDrivenRecovery(t *testing.T) {
	r := newRig(t, 5*time.Second) // long straggler timeout: recovery must come from the monitor
	workers := []string{"w2", "w3"}

	mon := cluster.NewMonitor(r.dep, 30*time.Millisecond, 2, func(b cluster.BoxInfo) {
		r.master.OnBoxFailure(b.ID)
	})
	mon.StartContext(t.Context())
	defer mon.Stop()

	p, err := r.master.Submit("wc", 50, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the aggregation-switch box after submission; the workers send
	// into the now-broken chain.
	r.boxes[2].Close()
	for i, name := range workers {
		r.workers[name].SendPartials("wc", 50, i, "master", [][]byte{kvPart("m", 3)}, 1)
	}

	res := waitResult2(t, p)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Attempts == 0 {
		t.Fatal("monitor-driven recovery should have bumped the attempt")
	}
	totals := sumResult(t, res)
	if totals["m"] != 6 {
		t.Fatalf("m = %d, want 6 (no loss, no duplication)", totals["m"])
	}
	if !r.dep.Dead(3 << 32) {
		t.Fatal("monitor should have marked the box dead")
	}
}

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
	// must resend at most once. (The data goes to boxes keyed by a fresh
	// attempt id, so a correct single resend is invisible to request 61.)
	ctl, ok := r.dep.ControlAddr("w0")
	if !ok {
		t.Fatal("no control address")
	}
	c := newCtl(t, ctl)
	for i := 0; i < 2; i++ {
		c(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: 61, Payload: wire.EncodeCount(1)})
	}
	time.Sleep(200 * time.Millisecond) // let any (wrong) duplicate land
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
