package transport

import (
	"context"
	"net"
	"sync"

	"netagg/internal/netem"
	"netagg/internal/wire"
)

// Handler processes one inbound frame. It runs on the connection's
// reader goroutine: blocking in it back-pressures that sender only (the
// box relies on this for §3.2.2 flow control). Replies go through the
// ServerConn, which serialises concurrent writers itself. The handler
// owns the frame's pooled payload reference (Msg.Buf): Release it when
// the payload is consumed, or Retain it to keep the bytes longer. A
// forgotten Release degrades to GC reclamation, never a use-after-free.
type Handler func(c *ServerConn, m *wire.Msg)

// ServerOptions configure a Server.
type ServerOptions struct {
	// NIC, when set, paces every accepted connection through the host's
	// emulated access link.
	NIC *netem.NIC
}

// Server is the inbound side of the data plane: a listener whose accept
// loop hands each connection to a reader goroutine feeding the handler.
// Every goroutine is tracked in one WaitGroup and cancelled through the
// constructor's context; Close cancels and drains.
type Server struct {
	ln      net.Listener
	handler Handler
	ctx     context.Context
	cancel  context.CancelFunc

	stats counters

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Listen starts a server on addr (":0" picks a free port). Cancelling
// ctx is equivalent to Close (Close still waits for the drain).
func Listen(ctx context.Context, addr string, handler Handler, opts ServerOptions) (*Server, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.NIC != nil {
		ln = netem.NewListener(ln, opts.NIC)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		ln:      ln,
		handler: handler,
		ctx:     sctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(2)
	go s.watch()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// Close cancels the server's context and waits for the accept loop and
// every per-connection reader to exit. Idempotent.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// watch turns context cancellation into the actual teardown: close the
// listener (unblocking the accept loop), mark closed, kill open
// connections (unblocking their readers). The listener goes first so a
// peer that reconnects the moment its connection dies is refused instead
// of being accepted by a server that is about to drop it again.
func (s *Server) watch() {
	defer s.wg.Done()
	<-s.ctx.Done()
	s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.accepted.Add(1)
		s.stats.active.Add(1)
		obsAccepted.Inc()
		obsActiveConns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve reads frames off one accepted connection into the handler.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	sc := &ServerConn{conn: conn, srv: s, done: make(chan struct{})}
	sc.q.init(&s.stats, &s.wg, sc.flusher)
	defer func() {
		close(sc.done) // stop the reply flusher (if one started)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.stats.active.Add(-1)
		obsActiveConns.Add(-1)
	}()
	r := wire.NewReader(conn)
	for {
		m, err := r.Read()
		if err != nil {
			return
		}
		s.stats.countIn(m)
		s.handler(sc, m)
	}
}

// ServerConn is the server's handle on one accepted connection, used by
// handlers to reply on the same connection (heartbeat echoes, acks).
// Like the outbound Conn, replies go through a sendq: a per-connection
// flusher goroutine coalesces concurrent replies into vectored writes,
// and Reply blocks only on queue admission.
type ServerConn struct {
	conn net.Conn
	srv  *Server
	done chan struct{} // closed when the reader goroutine exits
	q    sendq         // reply queue; its latched error means the peer is gone
}

// Reply queues one frame to go back on the connection. Safe for
// concurrent use. Replies are written asynchronously by the connection's
// flusher; an error (this call or a previous flush failing) means the
// peer is gone and the connection should be abandoned — unless it is the
// frame's own (wire.CheckFrame: over the wire limits), which refuses
// that frame and leaves the connection as it was.
func (sc *ServerConn) Reply(m *wire.Msg) error {
	one := [1]*wire.Msg{m}
	return sc.q.admit(one[:], nil)
}

// flusher drains queued replies into coalesced vectored writes until the
// connection dies or the write path fails.
func (sc *ServerConn) flusher() {
	vw := wire.NewVectorWriter(sc.conn)
	for {
		sc.q.moveQueued()
		if len(sc.q.pending) == 0 {
			select {
			case <-sc.q.wake:
				continue
			case <-sc.done:
			case <-sc.srv.ctx.Done():
			}
			sc.fail(ErrClosed)
			return
		}
		for len(sc.q.pending) > 0 {
			n := sc.q.stagePending()
			if err := sc.q.writeVec(vw); err != nil {
				sc.fail(err) // the peer is gone
				return
			}
			sc.drop(n)
		}
	}
}

// drop releases the reply queue's payload references on the first n
// pending frames and forgets them.
func (sc *ServerConn) drop(n int) {
	for i := 0; i < n; i++ {
		sc.q.pending[i].m.Buf.Release()
	}
	sc.q.pop(n)
}

// fail latches err so blocked and future repliers observe it, and
// releases every reply still queued or staged.
func (sc *ServerConn) fail(err error) {
	sc.q.close(err)
	sc.q.moveQueued()
	sc.drop(len(sc.q.pending))
}

// Close tears this one connection down; its reader goroutine exits and
// is reaped by the server's WaitGroup.
func (sc *ServerConn) Close() error { return sc.conn.Close() }
