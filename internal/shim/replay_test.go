package shim

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/wire"
)

// newDirectMaster builds a master shim over a box-less deployment: both
// workers stream straight to the result listener, so handle() can be
// driven directly with constructed frames.
func newDirectMaster(t *testing.T) (*Master, *Pending) {
	t.Helper()
	dep := cluster.NewDeployment()
	dep.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	dep.AddHost(cluster.Host{Name: "w0", Rack: 0, Pod: 0})
	dep.AddHost(cluster.Host{Name: "w1", Rack: 0, Pod: 0})
	m, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master"}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	p, err := m.Submit("app", 7, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func (p *Pending) snapshot() (sourcesDone int, received [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sourcesDone, append([][]byte(nil), p.received...)
}

// TestMasterDropsSameAttemptReplays proves the per-source sequence mark:
// the attempt guard passes a transport-replayed frame (same epoch), so
// without the mark a replayed TData would duplicate its part and a
// replayed TEnd/TResult would double-count sourcesDone.
func TestMasterDropsSameAttemptReplays(t *testing.T) {
	m, p := newDirectMaster(t)
	wireReq := cluster.WireReq(7, 0, 0)
	frame := func(typ wire.Type, source, seq uint64, payload string) *wire.Msg {
		return &wire.Msg{Type: typ, App: "app", Req: wireReq, Source: source, Seq: seq, Payload: []byte(payload)}
	}

	// A worker's direct stream, with every frame replayed once — the
	// shape a transport reconnect produces when the replay window
	// rewrites the tail of the connection.
	m.handle(frame(wire.TData, 0, 0, "a"))
	m.handle(frame(wire.TData, 0, 0, "a")) // replay: must not duplicate the part
	m.handle(frame(wire.TData, 0, 1, "b"))
	m.handle(frame(wire.TEnd, 0, 2, ""))
	m.handle(frame(wire.TEnd, 0, 2, "")) // replay: must not double-count the source

	done, recv := p.snapshot()
	if done != 1 {
		t.Fatalf("sourcesDone = %d after one finished stream (replayed TEnd double-counted), want 1", done)
	}
	if len(recv) != 2 || string(recv[0]) != "a" || string(recv[1]) != "b" {
		t.Fatalf("received = %q, want [a b]", recv)
	}

	// A box's TResult arrives as Seq 0; its replay must be dropped too,
	// and the clean completion below must deliver exactly one result.
	m.handle(frame(wire.TResult, 42, 0, "r"))
	m.handle(frame(wire.TResult, 42, 0, "r")) // replay
	res := <-p.C
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Parts) != 3 {
		t.Fatalf("result has %d parts (%q), want 3: replayed TResult double-counted", len(res.Parts), res.Parts)
	}
	select {
	case extra := <-p.C:
		t.Fatalf("second result delivered: %+v", extra)
	default:
	}
}

// TestMasterReplayMarksResetOnRearm proves a new attempt starts with
// fresh sequence marks: the epoch changes, so frame numbering restarts
// and stale marks would wrongly drop the new attempt's stream.
func TestMasterReplayMarksResetOnRearm(t *testing.T) {
	m, p := newDirectMaster(t)
	m.handle(&wire.Msg{Type: wire.TData, App: "app", Req: cluster.WireReq(7, 0, 0),
		Source: 0, Seq: 0, Payload: []byte("old")})
	if _, err := m.arm(p, 1, 0); err != nil {
		t.Fatal(err)
	}
	wireReq := cluster.WireReq(7, 0, 1)
	m.handle(&wire.Msg{Type: wire.TData, App: "app", Req: wireReq,
		Source: 0, Seq: 0, Payload: []byte("new")})
	m.handle(&wire.Msg{Type: wire.TEnd, App: "app", Req: wireReq, Source: 0, Seq: 1})

	done, recv := p.snapshot()
	if done != 1 || len(recv) != 1 || string(recv[0]) != "new" {
		t.Fatalf("after re-arm: sourcesDone=%d received=%q, want 1 stream delivering [new]", done, recv)
	}
}

// relay stands in front of a box so a test can cut the connections to it
// from the box's side: it forwards every connection it accepts to target
// until cut closes them all. The listener stays up, so a cut connection's
// owner can reconnect.
type relay struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	t.Cleanup(func() {
		ln.Close()
		r.cut()
	})
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, in, out)
			r.mu.Unlock()
			go func() { _, _ = io.Copy(out, in); out.Close() }()
			go func() { _, _ = io.Copy(in, out); in.Close() }()
		}
	}()
	return r
}

func (r *relay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// TestStaleWindowReplayIsHarmless pins why a redirect leaves the abandoned
// connection's replay window alone: when that connection later breaks and
// reconnects, the window's frames — all of the superseded attempt — reach a
// box whose master cancelled it, and change nothing. The request completes
// on the new attempt exactly, and every buffer is back by Close.
func TestStaleWindowReplayIsHarmless(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	const a, b = 5 << 32, 4 << 32
	front := newRelay(t, r.startBox(t, a).Addr())
	r.dep.AddBox(cluster.BoxInfo{ID: a, Addr: front.ln.Addr().String(), Switch: "tor:0"})
	r.addBox(t, b, "tor:0")
	// The marks decide the route: of tor:0's three boxes, one is not
	// congested, and rack 0's workers send there.
	r.dep.MarkCongested(1<<32, true)
	r.dep.MarkCongested(b, true)
	workers := []string{"w0", "w1"}
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := r.workers["w0"], r.workers["w1"]
	if err := w0.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1), kvPart("k", 2)}, 1); err != nil {
		t.Fatal(err)
	}
	toA := w0.pool.Get(mustBox(t, r.dep, a).Addr)
	if sent := toA.Stats().FramesOut; sent != 4 {
		t.Fatalf("w0 sent %d frames through box A, want its THello, two TData and TEnd", sent)
	}

	r.dep.MarkCongested(b, false)
	r.dep.MarkCongested(a, true)
	if n := r.master.Supersede(a, "migrate"); n != 1 {
		t.Fatalf("Supersede moved %d requests, want 1", n)
	}
	front.cut()
	deadline := time.Now().Add(5 * time.Second)
	for toA.Stats().Replayed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cut connection to box A never reconnected and replayed its window")
		}
		time.Sleep(time.Millisecond)
	}

	// w1 was late for attempt 0 and for the redirect; it sends, then hears
	// the redirect the straggler timer would repeat for it.
	if err := w1.SendPartials("wc", req, 1, "master", [][]byte{kvPart("k", 4)}, 1); err != nil {
		t.Fatal(err)
	}
	w1.applyRedirect(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: req, Payload: wire.EncodeCount(1)})
	res := waitResult2(t, p)
	if got := sumResult(t, res)["k"]; got != 7 || res.Attempts != 1 {
		t.Fatalf("k = %d after %d attempts, want exactly 7 on attempt 1", got, res.Attempts)
	}
	res.Release()
	r.close()
	poolBalance(t, before, 5*time.Second)
}
