package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/testutil"
	"netagg/internal/wire"
)

// dedupSink models a §3.1 receiver: it applies each frame once, keyed by
// the sequence number that carries the attempt identity, and counts raw
// deliveries separately so tests can see re-sent duplicates arriving.
type dedupSink struct {
	mu      sync.Mutex
	applied map[uint64]bool
	raw     int
}

func newDedupSink() *dedupSink {
	return &dedupSink{applied: make(map[uint64]bool)}
}

func (s *dedupSink) handle(_ *ServerConn, m *wire.Msg) {
	s.mu.Lock()
	s.raw++
	s.applied[m.Seq] = true
	s.mu.Unlock()
}

func (s *dedupSink) appliedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied)
}

// TestServerRestartResendAppliedOnce kills a server mid-stream and restarts it
// on the same address. The connection's OnLost fires exactly once, after
// its replacement is up and with nothing more sent, and the owner's
// re-send of what it had sent is applied once through the receiver's
// dedup, beside the frames sent after the restart.
func TestServerRestartResendAppliedOnce(t *testing.T) {
	sink := newDedupSink()
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var c *Conn
	var lost atomic.Int32
	c = NewConn(context.Background(), addr, Options{
		DialTimeout: 2 * time.Second,
		Backoff:     Backoff{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		OnLost: func(got string) {
			defer lost.Add(1) // counted once it has returned
			if got != addr {
				t.Errorf("OnLost(%q), want the connection's address %q", got, addr)
			}
			if st := c.Stats(); st.Reconnects != 1 {
				t.Errorf("OnLost ran with %d reconnects, want it after the replacement is up", st.Reconnects)
			}
			for seq := uint64(1); seq <= 5; seq++ {
				if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: []byte("x")}); err != nil {
					t.Errorf("re-send %d: %v", seq, err)
				}
			}
		},
	})
	defer c.Close()

	for seq := uint64(1); seq <= 5; seq++ {
		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	testutil.WaitFor(t, "first batch", func() bool { return sink.appliedCount() == 5 })

	// Kill the server mid-stream and restart it on the same address. The
	// flusher reconnects by itself: no send follows until OnLost is done.
	srv.Close()
	srv2, err := Listen(context.Background(), addr, sink.handle, ServerOptions{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	testutil.WaitFor(t, "the loss to be told", func() bool { return lost.Load() == 1 })
	for seq := uint64(6); seq <= 10; seq++ {
		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	testutil.WaitFor(t, "all 10 frames applied", func() bool { return sink.appliedCount() == 10 })

	st := c.Stats()
	if st.Reconnects != 1 || lost.Load() != 1 {
		t.Fatalf("%d reconnects, OnLost ran %d times; want exactly 1 of each (dials=%d, failures=%d)",
			st.Reconnects, lost.Load(), st.Dials, st.DialFailures)
	}
	sink.mu.Lock()
	raw, applied := sink.raw, len(sink.applied)
	sink.mu.Unlock()
	if raw < 10 || raw < applied {
		t.Fatalf("raw deliveries %d, applied %d", raw, applied)
	}
	t.Logf("raw deliveries %d, applied after dedup %d", raw, applied)
}

// peerSink is a server handler that remembers the connection of the last
// frame it read, so a test can sever it from the server's side.
type peerSink struct {
	mu     sync.Mutex
	frames int
	peer   *ServerConn
}

func (s *peerSink) handle(sc *ServerConn, m *wire.Msg) {
	s.mu.Lock()
	s.frames, s.peer = s.frames+1, sc
	s.mu.Unlock()
	m.Release()
}

func (s *peerSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *peerSink) sever() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peer.Close()
}

// TestOnLostOnlyForConnectionsThatWrote: a connection that never completed
// a write cannot have lost a frame, and its loss is not told; each
// connection that did write and was lost is told of exactly once, however
// its replacement is reached.
func TestOnLostOnlyForConnectionsThatWrote(t *testing.T) {
	sink := &peerSink{}
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var broken atomic.Bool
	broken.Store(true)
	var lost atomic.Int32
	var c *Conn
	c = NewConn(context.Background(), srv.Addr(), Options{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			nc, err := d.DialContext(ctx, "tcp", addr)
			return brokenWrites{nc, &broken}, err
		},
		Backoff: Backoff{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		OnLost: func(string) {
			lost.Add(1)
			// The owner's re-send is the replacement's first write.
			if err := c.Send(&wire.Msg{Type: wire.TData, Seq: 99}); err != nil {
				t.Errorf("re-send: %v", err)
			}
		},
	})
	defer c.Close()

	// Every connection dialled now fails its first write.
	if err := c.Send(&wire.Msg{Type: wire.TData, Seq: 0}); err == nil {
		t.Fatal("a send over a connection that cannot write succeeded")
	}
	time.Sleep(50 * time.Millisecond)
	if st := c.Stats(); st.Dials == 0 || lost.Load() != 0 {
		t.Fatalf("after %d dials that never wrote, OnLost ran %d times, want none", st.Dials, lost.Load())
	}

	broken.Store(false)
	testutil.WaitFor(t, "a send to succeed", func() bool { return c.Send(&wire.Msg{Type: wire.TData, Seq: 1}) == nil })
	testutil.WaitFor(t, "the frame", func() bool { return sink.count() == 1 })
	for i := int32(1); i <= 2; i++ {
		sink.sever()
		testutil.WaitFor(t, "the loss to be told and the re-send to arrive", func() bool {
			return lost.Load() == i && sink.count() == int(i)+1
		})
	}
	time.Sleep(50 * time.Millisecond)
	if got := lost.Load(); got != 2 {
		t.Fatalf("two lost connections told %d times, want 2", got)
	}
}

// TestOnLostRunsOffTheFlusher: OnLost may send on its own connection,
// more than the send queue holds, which on the flusher goroutine would
// wait for itself; and Close waits for an OnLost still running.
func TestOnLostRunsOffTheFlusher(t *testing.T) {
	sink := &peerSink{}
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var c *Conn
	c = NewConn(context.Background(), srv.Addr(), Options{OnLost: func(string) {
		group := make([]*wire.Msg, sendqCap)
		for i := range group {
			group[i] = &wire.Msg{Type: wire.TData, Seq: uint64(i)}
		}
		// The second group is admitted only once the flusher has taken
		// the first off the queue.
		for g := 0; g < 2; g++ {
			if err := c.SendAll(group); err != nil {
				t.Errorf("re-send group %d: %v", g, err)
			}
		}
		close(entered)
		<-release
	}})
	if err := c.Send(&wire.Msg{Type: wire.TData}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "the first frame", func() bool { return sink.count() == 1 })
	sink.sever()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("OnLost never got its two groups admitted")
	}
	testutil.WaitFor(t, "the re-sent groups", func() bool { return sink.count() == 1+2*sendqCap })

	returned := make(chan struct{})
	go func() {
		c.Close()
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("Close returned while OnLost was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-returned
}

// TestDialBackoffWindow checks that a dead destination costs one dial
// per backoff window: sends inside the window are refused without
// touching the dialer.
func TestDialBackoffWindow(t *testing.T) {
	var dials atomic.Int32
	c := NewConn(context.Background(), "nowhere:0", Options{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("destination down")
		},
		Backoff: Backoff{Min: 300 * time.Millisecond, Max: time.Second, Jitter: 0.01},
	})
	defer c.Close()

	msg := &wire.Msg{Type: wire.TData}
	if err := c.Send(msg); err == nil {
		t.Fatal("expected a dial error")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials after first send = %d, want 1", got)
	}
	if err := c.Send(msg); !errors.Is(err, ErrBackingOff) {
		t.Fatalf("send inside backoff window: err = %v, want ErrBackingOff", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dialled inside the backoff window: %d dials", got)
	}
	st := c.Stats()
	if st.DialFailures != 1 || st.BackoffSkips == 0 {
		t.Fatalf("stats = %+v, want DialFailures=1 and BackoffSkips>0", st)
	}
	// Min 300ms with 1% jitter caps the window at ~303ms.
	time.Sleep(350 * time.Millisecond)
	if err := c.Send(msg); err == nil || errors.Is(err, ErrBackingOff) {
		t.Fatalf("send after backoff window: err = %v, want a fresh dial error", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials after window elapsed = %d, want 2", got)
	}
}

// brokenWrites is a connection whose writes fail while broken is set.
type brokenWrites struct {
	net.Conn
	broken *atomic.Bool
}

func (b brokenWrites) Write(p []byte) (int, error) {
	if b.broken.Load() {
		return 0, errors.New("write refused")
	}
	return b.Conn.Write(p)
}

// TestWriteFailuresPaceRedial pins the re-dial storm shut: a destination
// that accepts every dial and then fails every write used to be re-dialled
// as fast as the flusher could loop — the dial succeeded, so no backoff
// window opened — 8,187 times in 300 ms with four frames queued. A
// connection that never completed a write now counts as a failed dial.
// The queued frames wait out the outage and are delivered once.
func TestWriteFailuresPaceRedial(t *testing.T) {
	sink := newDedupSink()
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dials atomic.Int32
	var broken atomic.Bool
	c := NewConn(context.Background(), srv.Addr(), Options{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			nc, err := d.DialContext(ctx, "tcp", addr)
			return brokenWrites{nc, &broken}, err
		},
	})
	defer c.Close()

	// The first batch goes through; then every write fails, on this
	// connection and on each one dialled after it.
	if err := c.Send(&wire.Msg{Type: wire.TData, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	broken.Store(true)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := c.Send(&wire.Msg{Type: wire.TData, Seq: seq}); err != nil {
			t.Fatalf("send %d on an established connection: %v", seq, err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	// One dial before the outage, one at once when the connection that had
	// written broke, then the default backoff: 50, 100, 200 ms (± 20 %).
	if got := dials.Load(); got > 6 {
		t.Fatalf("%d dials in 300 ms of failing writes, want a handful", got)
	}
	broken.Store(false)
	testutil.WaitFor(t, "the queued frames", func() bool { return sink.appliedCount() == 5 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.raw != 5 {
		t.Fatalf("%d deliveries of 5 frames", sink.raw)
	}
}

// TestReplyAndOnFrame round-trips a heartbeat: handler replies through
// the ServerConn, the client's reader delivers the echo to OnFrame, and
// both endpoints count the frames.
func TestReplyAndOnFrame(t *testing.T) {
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(c *ServerConn, m *wire.Msg) {
		if m.Type == wire.THeartbeat {
			_ = c.Reply(&wire.Msg{Type: wire.THeartbeat, Seq: m.Seq})
		}
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	replies := make(chan uint64, 4)
	c := NewConn(context.Background(), srv.Addr(), Options{
		OnFrame: func(m *wire.Msg) { replies <- m.Seq },
	})
	defer c.Close()

	if err := c.Send(&wire.Msg{Type: wire.THeartbeat, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-replies:
		if got != 7 {
			t.Fatalf("echoed seq = %d, want 7", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat echo")
	}
	// The server counts a frame out once its write returns, which the echo
	// can overtake on its way back.
	testutil.WaitFor(t, "the server to count its reply", func() bool { return srv.Stats().FramesOut == 1 })
	if st := srv.Stats(); st.FramesIn != 1 || st.FramesOut != 1 || st.Accepted != 1 {
		t.Fatalf("server stats = %+v, want 1 in / 1 out / 1 accepted", st)
	}
	if st := c.Stats(); st.FramesIn != 1 || st.FramesOut != 1 || st.Dials != 1 {
		t.Fatalf("conn stats = %+v, want 1 in / 1 out / 1 dial", st)
	}
}

// Close returns once the connection's goroutines are gone, whichever call
// started the teardown. Owners cancel their context, whose hook starts a
// Close, and then close their pool; that second Close used to return at
// once, so a frame the flusher had yet to release came back to the pool
// after its owner had closed. Here the reader is held inside OnFrame, so
// the teardown the cancellation started cannot finish until it is let go.
func TestCloseWaitsForTeardownStartedElsewhere(t *testing.T) {
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(sc *ServerConn, m *wire.Msg) {
		_ = sc.Reply(&wire.Msg{Type: wire.THeartbeat, Seq: m.Seq})
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	c := NewConn(ctx, srv.Addr(), Options{OnFrame: func(m *wire.Msg) {
		m.Release()
		close(entered)
		<-release
	}})
	if err := c.Send(&wire.Msg{Type: wire.THeartbeat, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	testutil.WaitFor(t, "the cancellation to close the queue", func() bool {
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		return c.q.err != nil
	})
	returned := make(chan struct{})
	go func() {
		c.Close()
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("Close returned while the connection's reader was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-returned
}

// TestCloseAbortsDialInFlight closes a connection whose context is still
// live while a synchronous Send waits on a dial that ends only with its
// context: Close must abort the dial rather than wait out DialTimeout, and
// a Send after Close must be refused with ErrClosed. The pool's Close
// stops its connections the same way.
func TestCloseAbortsDialInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(opts Options) (send func() error, close func())
	}{
		{"conn", func(opts Options) (func() error, func()) {
			c := NewConn(t.Context(), "peer", opts)
			return func() error { return c.Send(&wire.Msg{Type: wire.TData}) }, c.Close
		}},
		{"pool", func(opts Options) (func() error, func()) {
			p := NewPool(opts)
			return func() error { return p.Send("peer", &wire.Msg{Type: wire.TData}) }, p.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dialing := make(chan struct{})
			send, closeFn := tc.open(Options{
				DialTimeout: 10 * time.Second,
				Dial: func(ctx context.Context, addr string) (net.Conn, error) {
					close(dialing)
					<-ctx.Done()
					return nil, ctx.Err()
				},
			})
			sent := make(chan error, 1)
			go func() { sent <- send() }()
			<-dialing
			start := time.Now()
			closeFn()
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Close took %v waiting out the dial", d)
			}
			if err := <-sent; err == nil {
				t.Fatal("the Send whose dial Close aborted succeeded")
			}
			if err := send(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestUnencodableFrameRefusedAtAdmission pins where a frame the encoder
// cannot write is refused: at the hand-over, to the caller that built it,
// on a connected Conn, a never-connected one and a ServerConn alike. Past
// admission such a frame used to look like a dead connection — the
// flusher dropped the healthy socket, kept the frame, re-dialled and
// failed again, thousands of times a second — so the frames around it
// must arrive in order over the one connection dialled once.
func TestUnencodableFrameRefusedAtAdmission(t *testing.T) {
	oversize := &wire.Msg{Type: wire.TData, App: "t", Payload: make([]byte, wire.MaxPayload+1)}
	longApp := &wire.Msg{Type: wire.TData, App: string(make([]byte, 256))}

	var mu sync.Mutex
	var got []uint64
	replyErr := make(chan error, 1)
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(sc *ServerConn, m *wire.Msg) {
		mu.Lock()
		got = append(got, m.Seq)
		mu.Unlock()
		if m.Seq == 1 {
			replyErr <- sc.Reply(oversize)
			_ = sc.Reply(&wire.Msg{Type: wire.THeartbeat, Seq: m.Seq})
		}
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	echoed := make(chan uint64, 1)
	c := NewConn(context.Background(), srv.Addr(), Options{OnFrame: func(m *wire.Msg) { echoed <- m.Seq }})
	defer c.Close()

	// Never connected: the refusal is synchronous and dials nothing.
	if err := c.Send(oversize); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize send before any dial = %v, want ErrTooLarge", err)
	}
	if st := c.Stats(); st.Dials != 0 {
		t.Fatalf("refused frame dialled: %+v", st)
	}

	send := func(seq uint64) {
		t.Helper()
		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	send(1)
	send(2)
	if err := c.Send(oversize); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize send on a connected conn = %v, want ErrTooLarge", err)
	}
	if err := c.Send(longApp); err == nil {
		t.Fatal("a 256-byte app name was admitted")
	}
	// One bad frame refuses its whole group: nothing of it is queued.
	group := []*wire.Msg{{Type: wire.TData, App: "t", Seq: 99}, oversize}
	if err := c.SendAll(group); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("group with an oversize frame = %v, want ErrTooLarge", err)
	}
	for seq := uint64(3); seq <= 7; seq++ {
		send(seq)
	}

	testutil.WaitFor(t, "the seven good frames", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 7
	})
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("arrival order = %v, want 1..7", got)
		}
	}
	if err := <-replyErr; !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize reply = %v, want ErrTooLarge", err)
	}
	select {
	case seq := <-echoed:
		if seq != 1 {
			t.Fatalf("echo after the refused reply = %d, want 1", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reply queued after the refused one never arrived")
	}
	if st := c.Stats(); st.Dials != 1 || st.Reconnects != 0 {
		t.Fatalf("conn stats = %+v, want one dial and no reconnect", st)
	}
}

// TestContextCancellation checks that cancelling the constructor context
// is equivalent to Close on both endpoints.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := newDedupSink()
	srv, err := Listen(ctx, "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(ctx, srv.Addr(), Options{})
	if err := c.Send(&wire.Msg{Type: wire.TData, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "frame delivery", func() bool { return sink.appliedCount() == 1 })

	cancel()
	// The cancellation alone closes the listener: a fresh dial fails
	// before srv.Close runs.
	testutil.WaitFor(t, "listener to close on cancellation", func() bool {
		nc, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			return true
		}
		nc.Close()
		return false
	})
	srv.Close() // waits for the drain the cancellation started

	// The context hook closes the Conn asynchronously; once it lands,
	// sends fail permanently.
	testutil.WaitFor(t, "conn to observe cancellation", func() bool {
		return c.Send(&wire.Msg{Type: wire.TData, Seq: 2}) != nil
	})
	if err := c.Send(&wire.Msg{Type: wire.TData, Seq: 3}); err == nil {
		t.Fatal("send succeeded on a cancelled connection")
	}
	c.Close()

	// A fresh dial to the cancelled server must fail: its listener is gone.
	c2 := NewConn(context.Background(), srv.Addr(), Options{DialTimeout: 500 * time.Millisecond})
	defer c2.Close()
	if err := c2.Send(&wire.Msg{Type: wire.TData}); err == nil {
		t.Fatal("dial to a closed server succeeded")
	}
}

// TestCancelReleasesAWedgedWrite pins that cancelling NewConn's ctx is
// Close, not only a refusal of later sends: the flusher is wedged in a
// vectored write to a peer that stopped reading, which only closing the
// socket frees. The cancellation alone must tear the connection down and
// drop the queued frames.
func TestCancelReleasesAWedgedWrite(t *testing.T) {
	first, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(_ *ServerConn, m *wire.Msg) {
		m.Release()
		once.Do(func() { close(first) })
		<-unblock
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(unblock)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewConn(ctx, srv.Addr(), Options{})
	defer c.Close()
	if err := c.Send(&wire.Msg{Type: wire.TData, App: "t"}); err != nil {
		t.Fatal(err)
	}
	<-first // the server reads nothing more

	// 64 MiB is far more than the loopback socket buffers hold, so the
	// flusher sits in a write that cannot finish.
	payload := make([]byte, 1<<20)
	for seq := uint64(1); seq <= 64; seq++ {
		if err := c.Send(&wire.Msg{Type: wire.TData, App: "t", Seq: seq, Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	cancel()
	testutil.WaitFor(t, "the cancellation to drop the wedged frames", func() bool { return c.Stats().Dropped > 0 })
}

// TestPoolSharesConnections checks the pool caches one Conn per address
// and routes its sends through it.
func TestPoolSharesConnections(t *testing.T) {
	sink := newDedupSink()
	srv, err := Listen(context.Background(), "127.0.0.1:0", sink.handle, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPool(Options{})
	defer p.Close()
	if p.Get(srv.Addr()) != p.Get(srv.Addr()) {
		t.Fatal("pool returned distinct conns for one address")
	}
	if err := p.Send(srv.Addr(), &wire.Msg{Type: wire.TData, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(srv.Addr(), &wire.Msg{Type: wire.TData, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "two frames", func() bool { return sink.appliedCount() == 2 })
	if st := p.Get(srv.Addr()).Stats(); st.FramesOut != 2 || st.Dials != 1 {
		t.Fatalf("conn stats = %+v, want FramesOut=2 Dials=1", st)
	}
}
