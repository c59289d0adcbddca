package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/netem"
	"netagg/internal/testutil"
	"netagg/internal/wire"
)

// gateConn is a stub net.Conn whose Write can be gated shut, modelling a
// peer that stops draining its receive window. Read blocks until Close.
type gateConn struct {
	mu      sync.Mutex
	gate    chan struct{} // non-nil while writes are blocked; closed to release
	closed  chan struct{}
	once    sync.Once
	written atomic.Int64
}

func newGateConn() *gateConn {
	return &gateConn{closed: make(chan struct{})}
}

// blockWrites gates subsequent writes until releaseWrites.
func (g *gateConn) blockWrites() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateConn) releaseWrites() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-g.closed:
			return 0, io.ErrClosedPipe
		}
	}
	select {
	case <-g.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	g.written.Add(int64(len(p)))
	return len(p), nil
}

func (g *gateConn) Read(p []byte) (int, error) {
	<-g.closed
	return 0, io.EOF
}

func (g *gateConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return nil
}

func (g *gateConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (g *gateConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (g *gateConn) SetDeadline(t time.Time) error      { return nil }
func (g *gateConn) SetReadDeadline(t time.Time) error  { return nil }
func (g *gateConn) SetWriteDeadline(t time.Time) error { return nil }

// TestSendNoHeadOfLineBlocking is the regression test for the old
// mutex-per-Send design, where one peer that stopped reading stalled
// every sender sharing the connection. With the flusher queue, senders
// on an established connection block only on queue admission: they must
// return promptly while the socket is wedged, and the wedged frames must
// coalesce into a handful of vectored writes once it opens.
func TestSendNoHeadOfLineBlocking(t *testing.T) {
	g := newGateConn()
	c := NewConn(context.Background(), "stub:0", Options{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) { return g, nil },
	})
	defer c.Close()

	// Establish: the first send is synchronous and flows through a dial
	// plus an open gate.
	if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: 0, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}

	g.blockWrites()
	const frames = 32
	start := time.Now()
	for seq := uint64(1); seq <= frames; seq++ {
		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatalf("send %d on wedged socket: %v", seq, err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("sends on a wedged socket took %v; head-of-line blocking is back", elapsed)
	}
	g.releaseWrites()

	testutil.WaitFor(t, "wedged frames flushed", func() bool { return c.Stats().FramesOut == frames+1 })
	st := c.Stats()
	if st.WritevCalls >= frames {
		t.Fatalf("WritevCalls = %d for %d frames; wedged frames did not coalesce", st.WritevCalls, frames+1)
	}
	if st.FramesOut <= st.WritevCalls {
		t.Fatalf("%d frames in %d writev calls, want coalesced batches while the socket was wedged", st.FramesOut, st.WritevCalls)
	}
	t.Logf("%d frames in %d writev calls", st.FramesOut, st.WritevCalls)
}

// TestCloseReleasesQueuedFrames wedges a socket with pooled payloads in
// the send queue and closes the endpoint, at each end of a connection:
// every queued frame's payload reference must be released (refcount back
// to the test's own), and the undelivered fire-and-forget frames must be
// counted as Dropped. Run with -tags netaggdebug to turn any
// double-release into a panic.
func TestCloseReleasesQueuedFrames(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		g := newGateConn()
		c := NewConn(context.Background(), "stub:0", Options{
			Dial: func(ctx context.Context, addr string) (net.Conn, error) { return g, nil },
		})

		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: 0, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		g.blockWrites()

		const frames = 16
		bufs := make([]*bufpool.Buf, 0, frames)
		for seq := uint64(1); seq <= frames; seq++ {
			buf := bufpool.Get(512)
			bufs = append(bufs, buf)
			m := &wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: buf.Bytes(), Buf: buf}
			if err := c.Send(m); err != nil {
				t.Fatalf("send %d: %v", seq, err)
			}
		}
		c.Close()

		for i, buf := range bufs {
			if got := buf.Refs(); got != 1 {
				t.Fatalf("frame %d payload refs = %d after Close, want 1 (the test's own)", i+1, got)
			}
			buf.Release()
		}
		st := c.Stats()
		if st.Dropped == 0 {
			t.Fatalf("stats = %+v, want Dropped > 0 for undelivered queued frames", st)
		}
		if st.Dropped+st.FramesOut < frames {
			t.Fatalf("dropped %d + delivered %d frames, want every one of %d accounted",
				st.Dropped, st.FramesOut, frames)
		}
	})

	// The server end: a handler queues 1 MiB replies to a peer that never
	// reads, far more than the loopback socket buffers hold, so replies
	// are still queued, or in a write that cannot finish, when Close runs.
	t.Run("server", func(t *testing.T) {
		const replies = 32
		buf := bufpool.Get(1 << 20)
		queued := make(chan struct{})
		srv, err := Listen(context.Background(), "127.0.0.1:0", func(sc *ServerConn, m *wire.Msg) {
			m.Buf.Release()
			for seq := uint64(1); seq <= replies; seq++ {
				r := &wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: buf.Bytes(), Buf: buf}
				if err := sc.Reply(r); err != nil {
					t.Errorf("reply %d: %v", seq, err)
				}
			}
			close(queued)
		}, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if _, err := wire.NewVectorWriter(peer).WriteBatch([]*wire.Msg{{Type: wire.TData, App: "t"}}); err != nil {
			t.Fatal(err)
		}
		<-queued
		srv.Close()

		if got := buf.Refs(); got != 1 {
			t.Fatalf("reply payload refs = %d after Close, want 1 (the test's own)", got)
		}
		buf.Release()
		st := srv.Stats()
		if st.Dropped == 0 {
			t.Fatalf("stats = %+v, want Dropped > 0 for undelivered replies", st)
		}
		if st.Dropped+st.FramesOut < replies {
			t.Fatalf("dropped %d + delivered %d replies, want every one of %d accounted",
				st.Dropped, st.FramesOut, replies)
		}
	})
}

// TestQueuedFramesAppliedOnceAfterReconnect drives the §3.1 recovery
// story through the batched write path on an emulated slow link: frames
// are still queued (or buffered in the dead peer's socket) when the server
// dies mid-stream. The queued frames persist to the next connection, the
// owner sends its own copies again when OnLost tells it the connection was
// lost, and through the receiver's dedup every frame is applied exactly
// once, with payload refcounts balanced.
func TestQueuedFramesAppliedOnceAfterReconnect(t *testing.T) {
	sink := newDedupSink()
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var mu sync.Mutex
	var sent []*wire.Msg // the owner's copies
	var c *Conn
	// ~2 MB/s leaves 4 KiB frames in flight long enough for the kill to
	// land between queue admission and the wire.
	nic := netem.NewNIC("slow", 2e6, 2e6)
	c = NewConn(context.Background(), addr, Options{
		NIC:     nic,
		Backoff: Backoff{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		OnLost: func(string) {
			mu.Lock()
			again := slices.Clone(sent)
			mu.Unlock()
			if err := c.SendAll(again); err != nil {
				t.Errorf("re-send after the loss: %v", err)
			}
		},
	})

	const frames = 10
	bufs := make([]*bufpool.Buf, 0, frames)
	send := func(seq uint64) {
		t.Helper()
		buf := bufpool.Get(4096)
		bufs = append(bufs, buf)
		m := &wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: buf.Bytes(), Buf: buf}
		mu.Lock()
		sent = append(sent, m)
		mu.Unlock()
		var err error
		for try := 0; try < 400; try++ {
			if err = c.Send(m); err == nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("send %d never succeeded: %v", seq, err)
	}

	for seq := uint64(1); seq <= frames/2; seq++ {
		send(seq)
	}
	// Kill the server while the tail of the first half may still be
	// queued behind the slow link, then restart on the same address.
	srv.Close()
	srv2, err := Listen(context.Background(), addr, sink.handle, ServerOptions{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	for seq := uint64(frames/2 + 1); seq <= frames; seq++ {
		send(seq)
	}

	testutil.WaitFor(t, "all frames applied exactly once", func() bool { return sink.appliedCount() == frames })
	sink.mu.Lock()
	raw, applied := sink.raw, len(sink.applied)
	sink.mu.Unlock()
	if raw < applied {
		t.Fatalf("raw deliveries %d < applied %d", raw, applied)
	}

	c.Close()
	for i, buf := range bufs {
		if got := buf.Refs(); got != 1 {
			t.Fatalf("frame %d payload refs = %d after Close, want 1 (the test's own)", i+1, got)
		}
		buf.Release()
	}
	t.Logf("raw %d, applied %d", raw, applied)
}

// TestSyncSendFailsAtomically checks that a synchronous SendAll group on
// a disconnected endpoint either delivers or fails as a unit: when the
// dial fails, the caller gets the error and no frame of the group stays
// queued holding a payload reference.
func TestSyncSendFailsAtomically(t *testing.T) {
	c := NewConn(context.Background(), "nowhere:0", Options{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, errors.New("destination down")
		},
	})
	defer c.Close()

	bufs := []*bufpool.Buf{bufpool.Get(64), bufpool.Get(64)}
	msgs := []*wire.Msg{
		{Type: wire.TData, Seq: 1, Payload: bufs[0].Bytes(), Buf: bufs[0]},
		{Type: wire.TData, Seq: 2, Payload: bufs[1].Bytes(), Buf: bufs[1]},
	}
	if err := c.SendAll(msgs); err == nil {
		t.Fatal("expected a dial error")
	}
	for i, buf := range bufs {
		if got := buf.Refs(); got != 1 {
			t.Fatalf("group frame %d refs = %d after failed SendAll, want 1", i+1, got)
		}
		buf.Release()
	}
}
