package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/obs"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// scriptBox is a box that answers each heartbeat with the frames the test
// has queued since the last one, then the echo, which carries as its queue
// depth the number of heartbeats answered: once the monitor has observed a
// depth, it has handled every frame sent before that echo.
type scriptBox struct {
	srv     *transport.Server
	mu      sync.Mutex
	queued  []wire.Type
	answers int
}

func startScriptBox(t *testing.T) *scriptBox {
	t.Helper()
	sb := &scriptBox{}
	srv, err := transport.Listen(nil, "127.0.0.1:0", func(c *transport.ServerConn, m *wire.Msg) {
		seq := m.Seq
		m.Release()
		sb.mu.Lock()
		lead := sb.queued
		sb.queued = nil
		sb.answers++
		answers := sb.answers
		sb.mu.Unlock()
		for _, typ := range lead {
			_ = c.Reply(&wire.Msg{Type: typ, Source: 1 << 32})
		}
		_ = c.Reply(&wire.Msg{Type: wire.THeartbeat, Source: 1 << 32, Seq: seq, Payload: wire.EncodeLoad(answers, 0)})
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb.srv = srv
	t.Cleanup(srv.Close)
	return sb
}

// queue has the next heartbeat's answer lead with frames of the given
// types, and returns the depth whose echo follows them.
func (sb *scriptBox) queue(types ...wire.Type) int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.queued = append(sb.queued, types...)
	return sb.answers + 1
}

// TestMonitorHandlesEveryFrameItReceives holds the monitor to its column
// of wire.Protocol() behind a real heartbeat connection: each frame the
// table gives the monitor takes effect and never reaches the default arm
// (wire.Unexpected), and each frame the table does not give it, sent by
// the box ahead of an echo, reaches that arm. A rule that names the
// monitor with no case here, or guards a frame at it, fails.
func TestMonitorHandlesEveryFrameItReceives(t *testing.T) {
	const id = 1 << 32
	unexpected := obs.C("wire.unexpected_frames")
	sb := startScriptBox(t)
	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: id, Addr: sb.srv.Addr(), Switch: "tor:0"})
	m := NewMonitor(d, 5*time.Millisecond, quiet, func(uint64, string) int { return 0 })
	m.StartContext(context.Background())
	defer m.Stop()
	depth := func() int64 { s, _ := d.read(id); return s.load.QueueDepth }
	// handled waits until the monitor has read the echo at depth want, or a
	// frame has reached its default arm, and reports how many did.
	handled := func(want int, before int64) int64 {
		testutil.WaitFor(t, "the monitor to read the echo", func() bool {
			return depth() >= int64(want) || unexpected.Value() != before
		})
		return unexpected.Value() - before
	}

	// The echo is the monitor's one received frame: its effect is the load
	// it carries, observed in the deployment.
	cases := map[wire.Type]bool{wire.THeartbeat: true}
	for _, r := range wire.Protocol() {
		if r.GuardedAt(wire.RoleMonitor) {
			t.Errorf("the monitor guards %s, and this test has no case for it", r.Name)
		}
		if !r.MayReceive(wire.RoleMonitor) {
			continue
		}
		if !cases[r.Type] {
			t.Errorf("the monitor receives %s, and this test has no case for it", r.Name)
			continue
		}
		before := unexpected.Value()
		want := sb.queue()
		if n := handled(want, before); n != 0 {
			t.Errorf("%s reached the monitor's default arm (%d unexpected frames)", r.Name, n)
		} else if depth() < int64(want) {
			t.Errorf("%s did not take effect at the monitor", r.Name)
		}
	}

	t.Run("not-received", func(t *testing.T) {
		if bufpool.DebugEnabled {
			t.Skip("under netaggdebug CheckReceive panics on the reader goroutine first")
		}
		for _, r := range wire.Protocol() {
			if r.MayReceive(wire.RoleMonitor) {
				continue
			}
			before := unexpected.Value()
			want := sb.queue(r.Type)
			testutil.WaitFor(t, "the monitor to read the echo", func() bool { return depth() >= int64(want) })
			if n := unexpected.Value() - before; n != 1 {
				t.Errorf("%s, which the monitor does not receive, reached its default arm %d times, want 1", r.Name, n)
			}
		}
	})
}
