package testutil

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// Relay is a TCP forwarder a test puts in front of a listener — a box, a
// master's result address — to break the connections to it from the far
// side. Pause holds the bytes of every connection unread, so a sender's
// writes complete into socket buffers the receiver never drains, until
// Resume; Cut severs every connection, dropping whatever Pause held, and
// forwards again. The listener stays up, so a cut connection's owner can
// reconnect through it.
type Relay struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup
	read   atomic.Int64 // bytes read from either side, held or forwarded

	mu     sync.Mutex
	open   chan struct{} // closed while forwarding; a fresh one while paused
	cut    chan struct{} // closed by Cut for the connections it severs
	conns  []net.Conn
	closed bool // the test is over: accept nothing more
}

// NewRelay listens on a free loopback port and forwards every connection
// it accepts to target. The test's cleanup closes it and waits for its
// goroutines.
func NewRelay(t testing.TB, target string) *Relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Relay{ln: ln, target: target, open: make(chan struct{}), cut: make(chan struct{})}
	close(r.open)
	r.wg.Add(1)
	go r.accept()
	t.Cleanup(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		ln.Close()
		r.Cut()
		r.wg.Wait()
	})
	return r
}

// Addr is the address senders dial instead of the target's.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// BytesRead reports how many bytes the relay has read, from either side,
// whether it forwarded them or a Pause holds them.
func (r *Relay) BytesRead() int64 { return r.read.Load() }

// Pause stops forwarding in both directions: bytes already read wait in
// the relay, and the rest stay in the kernel's buffers, unread.
func (r *Relay) Pause() {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.open:
		r.open = make(chan struct{})
	default: // already paused
	}
}

// Resume forwards again after a Pause, starting with the bytes it held.
func (r *Relay) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resumeLocked()
}

// Cut closes every connection the relay holds, on both sides, and drops
// the bytes a Pause held. Forwarding resumes for the connections that
// come after.
func (r *Relay) Cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	close(r.cut)
	r.cut = make(chan struct{})
	r.resumeLocked()
}

func (r *Relay) resumeLocked() {
	select {
	case <-r.open:
	default:
		close(r.open)
	}
}

func (r *Relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		r.conns = append(r.conns, in, out)
		cut := r.cut
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(out, in, cut)
		go r.pipe(in, out, cut)
	}
}

// pipe copies src to dst, holding each chunk it reads while the relay is
// paused, until either side closes or the connections are cut.
func (r *Relay) pipe(dst, src net.Conn, cut chan struct{}) {
	defer r.wg.Done()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.read.Add(int64(n))
			r.mu.Lock()
			open := r.open
			r.mu.Unlock()
			select {
			case <-open:
			case <-cut:
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
