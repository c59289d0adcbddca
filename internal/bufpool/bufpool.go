// Package bufpool is the payload buffer substrate of the zero-copy data
// plane: a size-classed pool of reference-counted byte buffers that
// partial results travel in from the wire decoder, through the box
// combine pipeline, to the master shim — without per-hop copies and,
// on the steady-state path, without per-frame heap allocations.
//
// # Reference contract
//
// Get and Adopt return a buffer with one reference, owned by the
// caller. Every reference must be balanced by exactly one Release;
// Retain mints a new reference for a hand-off (a send queue, a combine
// tree). Releasing the last reference recycles the buffer into its
// size-class pool, after which its bytes must not be touched — the pool
// will hand the same backing array to an unrelated frame. Forgetting a
// Release is safe (the garbage collector reclaims the buffer; the pool
// just refills by allocating) but defeats recycling; releasing twice is a
// bug and panics.
//
// The contract is checked at run time (DESIGN.md §13): a double Release
// panics in every build, tests assert that ReadStats balances
// (Acquires == Releases) once their holders drain, and the `netaggdebug`
// build tag poisons recycled buffers and verifies the poison on reuse so
// use-after-release shows up as a panic in tests instead of silent
// cross-request corruption in production.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// minClassBits is the smallest pooled capacity (1<<9 = 512 B); classes
// double up to maxPooled. Larger requests get a plain refcounted buffer
// that is garbage-collected instead of recycled.
const (
	minClassBits = 9
	maxClassBits = 24 // 16 MiB, matching wire.MaxPayload
	numClasses   = maxClassBits - minClassBits + 1
	maxPooled    = 1 << maxClassBits
)

// Buf is one reference-counted payload buffer. The zero value is not
// usable; obtain buffers from Get or Adopt. All methods are nil-receiver
// safe so empty payloads (no backing buffer) need no special casing at
// call sites.
type Buf struct {
	p     []byte // full class-capacity backing array
	n     int    // live length: Bytes() == p[:n]
	class int32  // size-class index, -1 for unpooled (Adopt / oversize)
	refs  atomic.Int32
}

// pools holds one sync.Pool per size class. The New closures are the miss
// path: they allocate a class's backing array, out of line from Get, which
// recycles.
var pools [numClasses]sync.Pool

// news counts pool misses (fresh backing-array allocations); gets,
// retains, adopts, and releases count the reference operations. Tests
// assert recycling by watching news stay flat while gets climb, and
// leak-freedom by checking gets+retains+adopts == releases once a
// deployment has drained.
var news, gets, retains, adopts, releases atomic.Int64

func init() {
	for c := range pools {
		c := c
		pools[c].New = func() any {
			news.Add(1)
			return &Buf{p: make([]byte, 1<<(minClassBits+c)), class: int32(c)}
		}
	}
}

// classFor maps a requested length to its size-class index, or -1 when
// the request exceeds the largest pooled class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > maxPooled {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// Get returns a buffer of length n (capacity rounded up to the size
// class) holding one reference owned by the caller. The contents are
// unspecified — callers overwrite the full length (the wire decoder
// ReadFulls into it). Requests beyond the largest class allocate an
// exact-size unpooled buffer.
func Get(n int) *Buf {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		return getOversize(n)
	}
	b := pools[c].Get().(*Buf)
	debugCheckGet(b)
	b.n = n
	b.refs.Store(1)
	return b
}

// getOversize is the beyond-largest-class slow path, kept out of line so
// that Get's body is the pooled path alone.
//
//go:noinline
func getOversize(n int) *Buf {
	news.Add(1)
	b := &Buf{p: make([]byte, n), n: n, class: -1}
	b.refs.Store(1)
	return b
}

// Adopt wraps an externally allocated slice (an aggregator's combine
// output, a test fixture) in a refcounted handle so it can flow through
// owners uniformly. The buffer is unpooled: releasing the last
// reference just drops it for the garbage collector.
func Adopt(p []byte) *Buf {
	adopts.Add(1)
	b := &Buf{p: p, n: len(p), class: -1}
	b.refs.Store(1)
	return b
}

// Bytes returns the live payload slice. The slice is valid until the
// last reference is released; holders that keep it longer must Retain.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.p[:b.n]
}

// Len returns the live payload length.
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Cap returns the backing capacity (the size class).
func (b *Buf) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.p)
}

// SetLen shortens the live length (e.g. after decoding into a
// class-rounded buffer). Growing beyond the backing capacity panics.
func (b *Buf) SetLen(n int) {
	if n < 0 || n > len(b.p) {
		panic("bufpool: SetLen out of range")
	}
	b.n = n
}

// Pre-converted panic values: the strings are boxed into interfaces once,
// here, not at the panic sites of Retain and Release, which run on every
// hand-off.
var (
	panicRetainReleased any = "bufpool: Retain of a released buffer"
	panicDoubleRelease  any = "bufpool: double Release"
)

// Retain mints one additional reference and returns the buffer, so a
// hand-off reads as a single expression: queue.push(b.Retain()). Each
// retained reference needs its own Release.
func (b *Buf) Retain() *Buf {
	if b == nil {
		return nil
	}
	retains.Add(1)
	if b.refs.Add(1) <= 1 {
		panic(panicRetainReleased)
	}
	return b
}

// Release drops one reference. The last release recycles the buffer
// into its size-class pool (unpooled buffers are left to the garbage
// collector). Releasing more times than retained panics — a double
// release means some holder still believes it owns bytes the pool is
// about to hand to an unrelated frame.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	releases.Add(1)
	switch refs := b.refs.Add(-1); {
	case refs > 0:
		return
	case refs < 0:
		panic(panicDoubleRelease)
	}
	debugPoison(b)
	if b.class >= 0 {
		b.n = 0
		pools[int(b.class)].Put(b)
	}
}

// Refs reports the current reference count (test/debug introspection;
// racy by nature under concurrent holders).
func (b *Buf) Refs() int32 {
	if b == nil {
		return 0
	}
	return b.refs.Load()
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	// Gets counts Get calls, News the subset that allocated a fresh
	// backing array (pool misses), Retains and Adopts the other two ways
	// a reference is minted, and Releases the Release calls. Once every
	// holder has drained, Gets+Retains+Adopts == Releases — the
	// leak-freedom half of the ownership contract (the netaggdebug build
	// checks the double-release half).
	Gets, News, Retains, Adopts, Releases int64
}

// Acquires returns the total references minted (Gets+Retains+Adopts) —
// the number Releases must reach for the snapshot to be balanced.
func (s Stats) Acquires() int64 { return s.Gets + s.Retains + s.Adopts }

// ReadStats snapshots the package counters.
func ReadStats() Stats {
	return Stats{
		Gets: gets.Load(), News: news.Load(),
		Retains: retains.Load(), Adopts: adopts.Load(),
		Releases: releases.Load(),
	}
}
