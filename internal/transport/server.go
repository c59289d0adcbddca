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
// Every goroutine is tracked in one WaitGroup; cancelling the
// constructor's context starts the same teardown as Close, which also
// waits for the drain.
type Server struct {
	ln      net.Listener
	handler Handler
	stop    func() bool // detaches the context→teardown hook

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
	s := &Server{
		ln:      ln,
		handler: handler,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.stop = context.AfterFunc(ctx, s.teardown)
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// Close tears the server down and waits for the accept loop, every
// per-connection reader and every reply flusher to exit. Idempotent.
func (s *Server) Close() {
	s.teardown()
	s.stop()
	s.wg.Wait()
}

// teardown closes the listener (unblocking the accept loop), marks the
// server closed and kills open connections (unblocking their readers).
// The listener goes first so a peer that reconnects the moment its
// connection dies is refused instead of being accepted by a server that
// is about to drop it again.
func (s *Server) teardown() {
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
		obsAccepted.Inc()
		obsActiveConns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve reads frames off one accepted connection into the handler. On
// exit it closes the reply queue, which ends the reply flusher.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	sc := &ServerConn{conn: conn}
	sc.q.init(&s.stats, &s.wg, sc.flusher)
	readFrames(conn, &s.stats, func(m *wire.Msg) { s.handler(sc, m) })
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	sc.q.close(ErrClosed)
	sc.q.doorbell()
	obsActiveConns.Add(-1)
}

// ServerConn is the server's handle on one accepted connection, used by
// handlers to reply on the same connection (heartbeat echoes, acks).
// Like the outbound Conn, replies go through a sendq: a per-connection
// flusher goroutine coalesces concurrent replies into vectored writes,
// and Reply blocks only on queue admission.
type ServerConn struct {
	conn net.Conn
	q    sendq // reply queue; its latched error means the peer is gone
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

// flusher drains queued replies into coalesced vectored writes until
// the reader closes the reply queue or a write fails, then completes
// whatever is still queued with that error.
func (sc *ServerConn) flusher() {
	vw := wire.NewVectorWriter(sc.conn)
	var err error
	for err == nil {
		closed := sc.q.moveQueued()
		switch {
		case closed:
			err = ErrClosed
		case len(sc.q.pending) > 0:
			_, err = sc.q.flush(vw)
		default:
			<-sc.q.wake
		}
	}
	sc.q.close(err)
	sc.q.moveQueued()
	sc.q.complete(len(sc.q.pending), err)
}

// Close tears this one connection down; its reader goroutine exits and
// is reaped by the server's WaitGroup.
func (sc *ServerConn) Close() error { return sc.conn.Close() }
