package core

import (
	"context"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/obs"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// unexpectedFrames is wire.Unexpected's counter: it moves once for each
// frame that reaches a role's default dispatch arm.
var unexpectedFrames = obs.C("wire.unexpected_frames")

// boxFrames returns a function that delivers frames to the box over one
// loopback connection and returns once serveFrame has handled them: a
// connection's frames are handled one after another, so once the box has
// read a no-op TCancel sent behind them, they have all been through. What
// the box replies on the connection (heartbeat echoes) goes to echoes.
func boxFrames(t *testing.T, box *Box) (deliver func(...*wire.Msg), echoes <-chan *wire.Msg) {
	t.Helper()
	replies := make(chan *wire.Msg, 1)
	c := transport.NewConn(context.Background(), box.Addr(), transport.Options{OnFrame: func(m *wire.Msg) {
		m.Release()
		select {
		case replies <- m:
		default:
		}
	}})
	t.Cleanup(c.Close)
	return func(frames ...*wire.Msg) {
		t.Helper()
		want := box.srv.Stats().FramesIn + int64(len(frames)) + 1
		barrier := &wire.Msg{Type: wire.TCancel, App: "barrier"}
		if err := c.SendAll(append(frames, barrier)); err != nil {
			t.Fatal(err)
		}
		testutil.WaitFor(t, "the box to read the frames", func() bool { return box.srv.Stats().FramesIn >= want })
	}, replies
}

func startProtocolBox(t *testing.T) *Box {
	t.Helper()
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(box.Close)
	return box
}

// request returns a copy of the box's state for a request, taken under
// the box's lock; ok is false if the box holds none.
func (b *Box) request(app string, req uint64) (r boxRequest, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.requests[reqKey{app, req}]; p != nil {
		return *p, true
	}
	return boxRequest{}, false
}

// next returns the sink's next frame, or nil if none arrives in time.
func (s *resultSink) next() *wire.Msg {
	select {
	case m := <-s.results:
		return m
	case <-time.After(5 * time.Second):
		return nil
	}
}

// TestBoxHandlesEveryFrameItReceives holds the box to its column of
// wire.Protocol() at a real box over loopback: each frame the table gives
// the box takes effect through its arm of serveFrame and never reaches the
// default arm (wire.Unexpected), and each frame the table does not give
// it reaches that arm. A rule that names the box with no case here fails.
func TestBoxHandlesEveryFrameItReceives(t *testing.T) {
	box := startProtocolBox(t)
	sink := newResultSink(t)
	defer sink.close()
	deliver, echoes := boxFrames(t, box)
	part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})

	// Each case delivers the frame under test last, after what it needs,
	// on a request of its own, and says how its effect shows.
	hello := func(req uint64) *wire.Msg {
		return &wire.Msg{Type: wire.THello, App: "wc", Req: req, Payload: wire.EncodeStrings([]string{sink.addr()})}
	}
	cases := map[wire.Type]struct {
		frames []*wire.Msg
		took   func() bool
	}{
		wire.THello: {
			[]*wire.Msg{hello(1)},
			func() bool { r, ok := box.request("wc", 1); return ok && r.route != nil },
		},
		wire.TExpect: {
			[]*wire.Msg{{Type: wire.TExpect, App: "wc", Req: 2, Payload: wire.EncodeCount(3)}},
			func() bool { r, ok := box.request("wc", 2); return ok && r.expected == 3 },
		},
		wire.TData: {
			[]*wire.Msg{hello(3), {Type: wire.TData, App: "wc", Req: 3, Payload: part}},
			func() bool { r, ok := box.request("wc", 3); return ok && r.frames == 1 },
		},
		wire.TEnd: {
			[]*wire.Msg{
				{Type: wire.TExpect, App: "wc", Req: 4, Payload: wire.EncodeCount(1)},
				hello(4),
				{Type: wire.TData, App: "wc", Req: 4, Payload: part},
				{Type: wire.TEnd, App: "wc", Req: 4, Seq: 1},
			},
			func() bool { m := sink.next(); return m != nil && m.Type == wire.TResult && m.Req == 4 },
		},
		wire.THeartbeat: {
			[]*wire.Msg{{Type: wire.THeartbeat, Seq: 5}},
			func() bool {
				select {
				case m := <-echoes:
					return m.Type == wire.THeartbeat && m.Seq == 5
				case <-time.After(5 * time.Second):
					return false
				}
			},
		},
		wire.TCancel: {
			[]*wire.Msg{hello(6), {Type: wire.TCancel, App: "wc", Req: 6}},
			func() bool { _, ok := box.request("wc", 6); return !ok },
		},
		wire.TFanout: {
			[]*wire.Msg{{Type: wire.TFanout, App: "wc", Req: 7, Payload: (&wire.FanoutPayload{
				Inner: part, Routes: [][]string{{sink.addr()}},
			}).Encode()}},
			func() bool { m := sink.next(); return m != nil && m.Type == wire.TData && m.Req == 7 },
		},
	}
	for _, r := range wire.Protocol() {
		if !r.MayReceive(wire.RoleBox) {
			continue
		}
		c, ok := cases[r.Type]
		if !ok {
			t.Errorf("the box receives %s, and this test has no case for it", r.Name)
			continue
		}
		before := unexpectedFrames.Value()
		deliver(c.frames...)
		if n := unexpectedFrames.Value() - before; n != 0 {
			t.Errorf("%s reached the box's default arm (%d unexpected frames)", r.Name, n)
		} else if !c.took() {
			t.Errorf("%s did not take effect at the box", r.Name)
		}
	}

	t.Run("not-received", func(t *testing.T) {
		if bufpool.DebugEnabled {
			t.Skip("under netaggdebug CheckReceive panics on the reader goroutine first")
		}
		for _, r := range wire.Protocol() {
			if r.MayReceive(wire.RoleBox) {
				continue
			}
			before := unexpectedFrames.Value()
			deliver(&wire.Msg{Type: r.Type, App: "wc", Req: 8})
			if n := unexpectedFrames.Value() - before; n != 1 {
				t.Errorf("%s, which the box does not receive, reached its default arm %d times, want 1", r.Name, n)
			}
		}
	})
}

// TestBoxTakesGuardedFramesOnce delivers each frame the table guards at
// the box three times — once, once more at the same Seq (a re-sent
// stream), and a copy from the request's previous attempt, whose state
// the box still holds — and the result must be that of one delivery.
func TestBoxTakesGuardedFramesOnce(t *testing.T) {
	box := startProtocolBox(t)
	sink := newResultSink(t)
	defer sink.close()
	deliver, _ := boxFrames(t, box)
	part := func(v int64) []byte { return agg.EncodeKVs([]agg.KV{{Key: "k", Val: v}}) }

	// Two sources feed the request: source 0's TData (value 1) and TEnd
	// are the frames under test, and source 1 sends 10. The TExpect comes
	// after source 0's frames, so a TEnd counted twice closes the request
	// on source 0 alone, and a TData taken twice adds another 1.
	cases := map[wire.Type]bool{wire.TData: true, wire.TEnd: true}
	id := uint64(10)
	run := func(typ wire.Type, copies bool) int64 {
		id++
		old, cur := cluster.WireReq(id, 0, 0), cluster.WireReq(id, 0, 1)
		frame := func(req uint64, f wire.Type) *wire.Msg {
			if f == wire.TData {
				return &wire.Msg{Type: wire.TData, App: "wc", Req: req, Payload: part(1)}
			}
			return &wire.Msg{Type: wire.TEnd, App: "wc", Req: req, Seq: 1}
		}
		hello := func(req uint64) *wire.Msg {
			return &wire.Msg{Type: wire.THello, App: "wc", Req: req, Payload: wire.EncodeStrings([]string{sink.addr()})}
		}
		// The previous attempt's request is still open at the box, as when
		// its TCancel has not arrived: the stale copy lands there.
		stream := []*wire.Msg{hello(old), hello(cur)}
		for _, f := range []wire.Type{wire.TData, wire.TEnd} {
			if f == typ && copies {
				stream = append(stream, frame(old, f), frame(cur, f))
			}
			stream = append(stream, frame(cur, f))
		}
		stream = append(stream,
			&wire.Msg{Type: wire.TExpect, App: "wc", Req: cur, Payload: wire.EncodeCount(2)},
			&wire.Msg{Type: wire.TData, App: "wc", Req: cur, Source: 1, Payload: part(10)},
			&wire.Msg{Type: wire.TEnd, App: "wc", Req: cur, Source: 1, Seq: 1})
		deliver(stream...)
		m := sink.wait(t)
		kvs, err := agg.DecodeKVs(m.Payload)
		if m.Type != wire.TResult || m.Req != cur || err != nil || len(kvs) != 1 {
			t.Fatalf("%s: got %s for request %d (%v), want one key's TResult for %d", typ, m.Type, m.Req, err, cur)
		}
		return kvs[0].Val
	}
	for _, r := range wire.Protocol() {
		if !r.GuardedAt(wire.RoleBox) {
			continue
		}
		if !cases[r.Type] {
			t.Errorf("the box guards %s, and this test has no case for it", r.Name)
			continue
		}
		if once, thrice := run(r.Type, false), run(r.Type, true); once != 11 || thrice != once {
			t.Errorf("%s: one delivery sums %d, a repeated and a stale copy besides sum %d; want 11 both", r.Name, once, thrice)
		}
	}
}

// TestDroppedFrameKeepsNoRequestAlive: a guarded frame the box drops must
// not refresh its request's idle clock, so an idle request that a re-send
// repeats itself into is still collected by the janitor's sweep.
func TestDroppedFrameKeepsNoRequestAlive(t *testing.T) {
	box := startProtocolBox(t)
	deliver, _ := boxFrames(t, box)
	part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})
	stream := []*wire.Msg{
		{Type: wire.TExpect, App: "wc", Req: 20, Payload: wire.EncodeCount(2)},
		{Type: wire.TData, App: "wc", Req: 20, Payload: part},
		{Type: wire.TEnd, App: "wc", Req: 20, Seq: 1},
	}
	deliver(stream...)
	req, _ := box.request("wc", 20)
	time.Sleep(20 * time.Millisecond)
	for _, r := range wire.Protocol() {
		if !r.GuardedAt(wire.RoleBox) {
			continue
		}
		for _, m := range stream[1:] {
			if m.Type == r.Type {
				dup := *m
				deliver(&dup)
			}
		}
	}
	box.sweep(req.lastSeen.Add(idleTimeout + 10*time.Millisecond))
	if _, ok := box.request("wc", 20); ok {
		t.Fatal("dropped duplicates kept an idle request from the janitor")
	}
}
