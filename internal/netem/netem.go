// Package netem emulates link capacities on loopback connections so the
// testbed experiments (§4.2) reproduce the paper's bandwidth ratios: servers
// on 1 Gbps links, agg boxes on 10 Gbps links. Each emulated host has a NIC
// with an inbound and an outbound token bucket shared by all of the host's
// connections, capturing the many-to-one congestion at a master or
// aggregator NIC that drives the paper's results. Rates are scaled down
// (default 1:100) so experiments complete quickly; only rate *ratios* matter
// for the figures.
package netem

import (
	"net"
	"sync"
	"time"
)

// DefaultScale divides emulated rates so a "10 Gbps" link moves ~12.5 MB/s
// on loopback.
const DefaultScale = 100

// Gbps converts gigabits per second to emulated bytes per second at the
// given scale.
func Gbps(g float64, scale float64) float64 {
	if scale <= 0 {
		scale = DefaultScale
	}
	return g * 1e9 / 8 / scale
}

// Limiter is a token bucket: Wait(n) blocks until n tokens are available.
// It is safe for concurrent use; waiters are admitted in arrival order.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter emitting rate bytes/second with the given
// burst. A zero burst defaults to 20 ms of credit clamped to [8 KiB,
// 64 KiB], small enough that experiment transfers are dominated by the
// rate rather than the credit.
func NewLimiter(rate float64, burst float64) *Limiter {
	if rate <= 0 {
		panic("netem: limiter rate must be > 0")
	}
	if burst <= 0 {
		burst = rate / 50
		if burst > 64*1024 {
			burst = 64 * 1024
		}
		if burst < 8*1024 {
			burst = 8 * 1024
		}
	}
	return &Limiter{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// Wait blocks until n bytes of budget are available and consumes them.
// Requests larger than the burst are admitted in burst-sized instalments by
// letting the balance go negative, which preserves the long-run rate.
func (l *Limiter) Wait(n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens -= float64(n)
	var sleep time.Duration
	if l.tokens < 0 {
		sleep = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

// NIC is an emulated network interface: all connections of one host share
// its inbound and outbound buckets.
type NIC struct {
	name string
	in   *Limiter
	out  *Limiter
}

// NewNIC returns a NIC with the given rates in bytes per second.
func NewNIC(name string, inRate, outRate float64) *NIC {
	return &NIC{name: name, in: NewLimiter(inRate, 0), out: NewLimiter(outRate, 0)}
}

// Name returns the NIC's label.
func (n *NIC) Name() string { return n.name }

// maxChunk bounds a single limiter acquisition so concurrent flows
// interleave fairly rather than serialising whole messages.
const maxChunk = 32 * 1024

// Conn wraps a net.Conn with the local NIC's outbound bucket on writes and
// inbound bucket on reads.
type Conn struct {
	net.Conn
	nic *NIC
}

// Wrap attaches a NIC to a connection.
func Wrap(c net.Conn, nic *NIC) net.Conn {
	if nic == nil {
		return c
	}
	return &Conn{Conn: c, nic: nic}
}

// Read paces inbound bytes through the NIC's inbound bucket.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > maxChunk {
		p = p[:maxChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.nic.in.Wait(n)
	}
	return n, err
}

// Write paces outbound bytes through the NIC's outbound bucket.
func (c *Conn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		end := written + maxChunk
		if end > len(p) {
			end = len(p)
		}
		c.nic.out.Wait(end - written)
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Listener wraps accepted connections with the host's NIC.
type Listener struct {
	net.Listener
	nic *NIC
}

// NewListener returns a listener whose accepted connections are paced by nic.
func NewListener(l net.Listener, nic *NIC) *Listener {
	return &Listener{Listener: l, nic: nic}
}

// Accept wraps the accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(c, l.nic), nil
}
