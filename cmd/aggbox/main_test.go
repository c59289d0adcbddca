package main

import (
	"net"
	"testing"
	"time"

	"netagg/internal/core"
	"netagg/internal/testutil"
	"netagg/internal/wire"
)

func TestMain(m *testing.M) { testutil.LeakCheckMain(m) }

// TestBoxShutdownLeavesNoGoroutines drives the daemon's box through a
// heartbeat and a full aggregation request, then closes it: Close must
// leave zero reader/scheduler goroutines behind (the daemon restarts
// boxes on config changes in deployment scripts, so leaks compound).
func TestBoxShutdownLeavesNoGoroutines(t *testing.T) {
	testutil.CheckLeaks(t)

	box, err := core.Start(core.Config{
		ID:       1 << 32,
		Workers:  4,
		Registry: newRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Result listener standing in for a master shim.
	resLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resLn.Close()
	results := make(chan *wire.Msg, 1)
	go func() {
		conn, err := resLn.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := wire.NewReader(conn)
		for {
			m, err := r.Read()
			if err != nil {
				return
			}
			if m.Type == wire.TResult {
				results <- m
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", box.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewVectorWriter(conn)
	r := wire.NewReader(conn)

	// Heartbeat echo proves the reader goroutine is live.
	if _, err := w.WriteBatch([]*wire.Msg{{Type: wire.THeartbeat, Seq: 42}}); err != nil {
		t.Fatal(err)
	}
	hb, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if hb.Type != wire.THeartbeat || hb.Seq != 42 {
		t.Fatalf("heartbeat echo = %v seq %d, want heartbeat seq 42", hb.Type, hb.Seq)
	}

	// One single-source wordcount aggregation routed to the listener.
	route := wire.EncodeStrings([]string{resLn.Addr().String()})
	frames := []*wire.Msg{
		{Type: wire.THello, App: "concat", Req: 7, Source: 1, Payload: route},
		{Type: wire.TExpect, App: "concat", Req: 7, Payload: wire.EncodeCount(1)},
		{Type: wire.TData, App: "concat", Req: 7, Source: 1, Payload: []byte("hello")},
		{Type: wire.TEnd, App: "concat", Req: 7, Source: 1, Seq: 1},
	}
	if _, err := w.WriteBatch(frames); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-results:
		if string(res.Payload) != "hello" {
			t.Fatalf("aggregated payload = %q, want %q", res.Payload, "hello")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no TResult within 5s")
	}

	box.Close()
	// CheckLeaks (via t.Cleanup) now verifies the accept loop, the
	// connection reader, the janitor, and all scheduler workers exited.
}
