package transport

import (
	"context"
	"sync"

	"netagg/internal/wire"
)

// Pool caches one Conn per destination address. All connections share
// the pool's context and Options, so a NIC or backoff policy is
// configured once per host.
type Pool struct {
	ctx  context.Context
	opts Options

	mu    sync.Mutex
	conns map[string]*Conn
}

// NewPool returns a pool whose connections live under ctx: cancelling it
// closes them all.
func NewPool(ctx context.Context, opts Options) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Pool{ctx: ctx, opts: opts, conns: make(map[string]*Conn)}
}

// Get returns the pooled connection for addr, creating it on first use.
func (p *Pool) Get(addr string) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.conns[addr]
	if !ok {
		c = NewConn(p.ctx, addr, p.opts)
		p.conns[addr] = c
	}
	return c
}

// Send routes one frame through the pooled connection for addr.
func (p *Pool) Send(addr string, m *wire.Msg) error {
	return p.Get(addr).Send(m)
}

// Close closes every pooled connection and forgets them. The drain
// (reader goroutines) happens outside the pool lock.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := make([]*Conn, 0, len(p.conns))
	for _, c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = make(map[string]*Conn)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
