package core

import (
	"context"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// TestBoxTakesEachSourceInOrder loses the middle of one source's stream
// in a cut connection — two parts written into a paused relay — while the
// rest of the stream arrives on the next connection. The box takes nothing
// past the gap: not the last part, and not the TEnd that would have closed
// the request one part short. The sender's whole stream, sent again, fills
// the gap; the copies of what the box had are dropped, and the result is
// exact.
func TestBoxTakesEachSourceInOrder(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()
	front := testutil.NewRelay(t, box.Addr())
	sendExpect(t, box.Addr(), "wc", 9, 1)

	part := func(v int64) []byte { return agg.EncodeKVs([]agg.KV{{Key: "k", Val: v}}) }
	stream := []*wire.Msg{{Type: wire.THello, App: "wc", Req: 9, Payload: wire.EncodeStrings([]string{sink.addr()})}}
	for i := 0; i < 4; i++ {
		stream = append(stream, &wire.Msg{Type: wire.TData, App: "wc", Req: 9, Seq: uint64(i), Payload: part(int64(1) << i)})
	}
	stream = append(stream, &wire.Msg{Type: wire.TEnd, App: "wc", Req: 9, Seq: 4})

	// The hello and part 0 arrive; parts 1 and 2 go down with the cut.
	first := transport.NewConn(context.Background(), front.Addr(), transport.Options{})
	defer first.Close()
	if err := first.SendAll(stream[:2]); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "part 0 at the box", func() bool { return box.Stats().BytesIn == int64(len(part(1))) })
	front.Pause()
	read := front.BytesRead()
	if err := first.SendAll(stream[2:4]); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "parts 1 and 2 held by the relay", func() bool {
		return first.Stats().FramesOut == 4 && front.BytesRead() > read
	})
	front.Cut()

	next := transport.NewConn(context.Background(), box.Addr(), transport.Options{})
	defer next.Close()
	dropped := obsDupFrames.Value()
	if err := next.SendAll(stream[4:]); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "part 3 and the TEnd to be dropped", func() bool { return obsDupFrames.Value()-dropped == 2 })
	select {
	case m := <-sink.results:
		t.Fatalf("the request completed across a gap: %v %q", m.Type, m.Payload)
	case <-time.After(50 * time.Millisecond):
	}

	if err := next.SendAll(stream); err != nil {
		t.Fatal(err)
	}
	m := sink.wait(t)
	kvs, err := agg.DecodeKVs(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Val != 15 {
		t.Fatalf("result %v, want k = 1+2+4+8", kvs)
	}
	if got := obsDupFrames.Value() - dropped; got != 3 {
		t.Fatalf("%d frames dropped in all, want the gap's two and the re-sent part 0", got)
	}
}
