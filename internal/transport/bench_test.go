package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/wire"
)

// BenchmarkTransportEcho is the baseline for the comms hot path: one
// 1 KiB frame to a Server whose handler echoes it back through the
// ServerConn, round-tripped serially over one persistent connection.
// Two frames cross the wire per iteration, reported as frames/s. The
// sub-benchmark keeps the name its row has in BENCH_transport.json, so
// benchguard keeps comparing it.
func BenchmarkTransportEcho(b *testing.B) {
	b.Run("window=0", benchEcho)
}

func benchEcho(b *testing.B) {
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(c *ServerConn, m *wire.Msg) {
		_ = c.Reply(m)
		m.Release()
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	replies := make(chan *wire.Msg, 1)
	c := NewConn(context.Background(), srv.Addr(), Options{
		OnFrame: func(m *wire.Msg) { m.Release(); replies <- m },
	})
	defer c.Close()

	msg := &wire.Msg{Type: wire.TData, App: "bench", Payload: make([]byte, 1024)}
	// Warm up before the timer: the dial and both endpoints' reader/writer
	// buffers are one-time setup, and counting them in the timed region
	// inflated B/op at small -benchtime (the 1488 B/op regression logged
	// against this bench was exactly that).
	if err := c.Send(msg); err != nil {
		b.Fatal(err)
	}
	<-replies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint64(i)
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		<-replies
	}
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkTransportEchoParallel is the contended hot path: 8 concurrent
// senders share one connection while echoes stream back. The flusher
// coalesces the concurrent sends into vectored writes, so frames/writev
// is the realised batch size under contention.
func BenchmarkTransportEchoParallel(b *testing.B) {
	const senders = 8
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(c *ServerConn, m *wire.Msg) {
		_ = c.Reply(m)
		m.Release()
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	replies := make(chan struct{}, 4*sendqCap)
	c := NewConn(context.Background(), srv.Addr(), Options{
		OnFrame: func(m *wire.Msg) { m.Release(); replies <- struct{}{} },
	})
	defer c.Close()

	warm := &wire.Msg{Type: wire.TData, App: "bench", Payload: make([]byte, 1024)}
	if err := c.Send(warm); err != nil {
		b.Fatal(err)
	}
	<-replies
	base := c.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		n := b.N / senders
		if s < b.N%senders {
			n++
		}
		wg.Add(1)
		go func(id, n int) {
			defer wg.Done()
			m := &wire.Msg{Type: wire.TData, App: "bench", Payload: make([]byte, 1024)}
			for i := 0; i < n; i++ {
				m.Seq = uint64(id)<<32 | uint64(i)
				if err := c.Send(m); err != nil {
					b.Error(err)
					return
				}
			}
		}(s, n)
	}
	for i := 0; i < b.N; i++ {
		<-replies
	}
	wg.Wait()
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "frames/s")
	if calls := st.WritevCalls - base.WritevCalls; calls > 0 {
		b.ReportMetric(float64(st.FramesOut-base.FramesOut)/float64(calls), "frames/writev")
	}
}

// BenchmarkTransportGoodput streams large pooled payloads one way and
// reports application-level MB/s: the zero-copy path from the buffer
// pool through net.Buffers to the socket, with no echo on the return
// leg.
func BenchmarkTransportGoodput(b *testing.B) {
	const frameSize = 64 << 10
	srv, err := Listen(context.Background(), "127.0.0.1:0", func(_ *ServerConn, m *wire.Msg) {
		m.Release()
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	c := NewConn(context.Background(), srv.Addr(), Options{})
	defer c.Close()

	buf := bufpool.Get(frameSize)
	defer buf.Release()
	msg := &wire.Msg{Type: wire.TData, App: "bench", Payload: buf.Bytes(), Buf: buf}
	if err := c.Send(msg); err != nil {
		b.Fatal(err)
	}
	for srv.Stats().FramesIn < 1 {
		time.Sleep(time.Millisecond)
	}

	b.SetBytes(frameSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint64(i)
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	want := int64(b.N) + 1
	for srv.Stats().FramesIn < want {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*frameSize/1e6/b.Elapsed().Seconds(), "MB/s")
}
