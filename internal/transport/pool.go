package transport

import (
	"sync"

	"netagg/internal/wire"
)

// Pool caches one Conn per destination address. All connections share
// the pool's Options, so a NIC or backoff policy is configured once per
// host.
type Pool struct {
	opts Options

	mu     sync.Mutex
	conns  map[string]*Conn
	closed bool
}

// NewPool returns a pool whose connections live until Close.
func NewPool(opts Options) *Pool {
	return &Pool{opts: opts, conns: make(map[string]*Conn)}
}

// Get returns the pooled connection for addr, creating it on first use.
func (p *Pool) Get(addr string) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.conns[addr]
	if !ok {
		c = NewConn(nil, addr, p.opts)
		if p.closed {
			c.Close() // a closed pool hands out closed connections
			return c
		}
		p.conns[addr] = c
	}
	return c
}

// Send routes one frame through the pooled connection for addr.
func (p *Pool) Send(addr string, m *wire.Msg) error {
	return p.Get(addr).Send(m)
}

// Close closes every pooled connection, each aborting a dial in flight,
// and forgets them; a later Send returns ErrClosed. The drain (reader
// goroutines) happens outside the pool lock.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := make([]*Conn, 0, len(p.conns))
	for _, c := range p.conns {
		conns = append(conns, c)
	}
	p.conns, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
