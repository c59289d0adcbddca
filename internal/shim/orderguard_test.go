package shim

import (
	"testing"

	"netagg/internal/cluster"
	"netagg/internal/wire"
)

// newDirectMaster builds a master shim over a box-less deployment: both
// workers stream straight to the result listener, so handle() can be
// driven directly with constructed frames.
func newDirectMaster(t *testing.T) (*Master, *Pending) {
	t.Helper()
	dep := cluster.NewDeployment(nil)
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

// TestMasterDropsSameAttemptDuplicates proves the per-source sequence mark:
// the attempt guard passes a re-sent frame (same epoch), so without the
// mark a re-sent TData would duplicate its part and a re-sent
// TEnd/TResult would double-count sourcesDone; and a source's frames are
// taken strictly in order, so one behind a gap is dropped too.
func TestMasterDropsSameAttemptDuplicates(t *testing.T) {
	m, p := newDirectMaster(t)
	wireReq := cluster.WireReq(7, 0, 0)
	frame := func(typ wire.Type, source, seq uint64, payload string) *wire.Msg {
		return &wire.Msg{Type: typ, App: "app", Req: wireReq, Source: source, Seq: seq, Payload: []byte(payload)}
	}

	// A worker's direct stream, with frames sent twice — the shape a
	// whole-stream re-send produces after a lost connection.
	m.handle(frame(wire.TData, 0, 0, "a"))
	m.handle(frame(wire.TData, 0, 0, "a")) // again: must not duplicate the part
	m.handle(frame(wire.TData, 0, 1, "b"))
	m.handle(frame(wire.TEnd, 0, 2, ""))
	m.handle(frame(wire.TEnd, 0, 2, "")) // again: must not double-count the source
	// The other worker's stream lost its first frame: what follows the gap
	// must neither join the parts nor end the stream.
	m.handle(frame(wire.TData, 1, 1, "gap"))
	m.handle(frame(wire.TEnd, 1, 2, ""))

	done, recv := p.snapshot()
	if done != 1 {
		t.Fatalf("sourcesDone = %d after one finished stream and one with a gap, want 1", done)
	}
	if len(recv) != 2 || string(recv[0]) != "a" || string(recv[1]) != "b" {
		t.Fatalf("received = %q, want [a b]", recv)
	}

	// A box's TResult arrives as Seq 0; a second copy must be dropped too,
	// and the clean completion below must deliver exactly one result.
	m.handle(frame(wire.TResult, 42, 0, "r"))
	m.handle(frame(wire.TResult, 42, 0, "r")) // again
	res := <-p.C
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Parts) != 3 {
		t.Fatalf("result has %d parts (%q), want 3: a repeated TResult was counted", len(res.Parts), res.Parts)
	}
	select {
	case extra := <-p.C:
		t.Fatalf("second result delivered: %+v", extra)
	default:
	}
}

// TestMasterSeqMarksResetOnRearm proves a new attempt starts with
// fresh sequence marks: the epoch changes, so frame numbering restarts
// and stale marks would wrongly drop the new attempt's stream.
func TestMasterSeqMarksResetOnRearm(t *testing.T) {
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
