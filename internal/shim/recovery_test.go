package shim

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// kvOracle is the result a request over these workers' parts must equal
// byte for byte: every part decoded and each key summed, with no Merge.
func kvOracle(t *testing.T, parts ...[][]byte) []byte {
	t.Helper()
	sums := map[string]int64{}
	for _, ps := range parts {
		for _, p := range ps {
			kvs, err := agg.DecodeKVs(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range kvs {
				sums[kv.Key] += kv.Val
			}
		}
	}
	kvs := make([]agg.KV, 0, len(sums))
	for k, v := range sums {
		kvs = append(kvs, agg.KV{Key: k, Val: v})
	}
	slices.SortFunc(kvs, func(a, b agg.KV) int { return bytes.Compare([]byte(a.Key), []byte(b.Key)) })
	return agg.EncodeKVs(kvs)
}

// requireExact fails the test unless res is the one aggregate want,
// delivered after attempts recovery attempts.
func requireExact(t *testing.T, res Result, want []byte, attempts int) {
	t.Helper()
	if res.Err != nil || res.Attempts != attempts || len(res.Parts) != 1 || !bytes.Equal(res.Parts[0], want) {
		t.Fatalf("result %v after %d attempts, err %v; want the oracle's %d bytes after %d",
			sumResult(t, res), res.Attempts, res.Err, len(want), attempts)
	}
}

// lastAttemptOf is the attempt the worker last sent the request at (-1 if
// it holds no send of it).
func (w *Worker) lastAttemptOf(app string, req uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.buffered[bufKey{app, req}]; b != nil {
		return b.lastAttempt
	}
	return -1
}

// toldOfLoss gives w a pool whose OnLost, once the worker's own answer has
// returned, reports the address on the returned channel (the first loss;
// later ones are not waited for).
func toldOfLoss(t *testing.T, w *Worker) <-chan string {
	told := make(chan string, 1)
	w.pool.Close()
	w.pool = transport.NewPool(transport.Options{OnLost: func(addr string) {
		w.resend(addr)
		select {
		case told <- addr:
		default:
		}
	}})
	return told
}

// reannounced gives m a box pool whose OnLost, once the master's own
// answer has returned, sends a heartbeat down the replacement connection
// and waits for its echo — a box takes one connection's frames in order,
// so by then it has taken the re-announced TExpect — and reports the
// address on the returned channel (the first loss only).
func reannounced(t *testing.T, m *Master) <-chan string {
	told := make(chan string, 1)
	echo := make(chan struct{}, 1)
	m.pool.Close()
	m.pool = transport.NewPool(transport.Options{
		OnFrame: func(msg *wire.Msg) {
			msg.Release()
			select {
			case echo <- struct{}{}:
			default:
			}
		},
		OnLost: func(addr string) {
			m.reannounce(addr)
			if err := m.pool.Send(addr, &wire.Msg{Type: wire.THeartbeat, Seq: 1}); err != nil {
				t.Errorf("heartbeat after the re-announce: %v", err)
			}
			select {
			case <-echo:
			case <-time.After(5 * time.Second):
				t.Error("the box never echoed the heartbeat after the re-announce")
			}
			select {
			case told <- addr:
			default:
			}
		},
	})
	return told
}

// rack0Through deploys one more box at tor:0 behind a relay and marks the
// rig's own tor:0 box congested, so rack 0's workers and the master's
// TExpect reach the new box through the relay.
func rack0Through(t *testing.T, r *rig, id uint64) (*core.Box, *testutil.Relay) {
	t.Helper()
	box := r.startBox(t, id)
	front := testutil.NewRelay(t, box.Addr())
	r.dep.AddBox(cluster.BoxInfo{ID: id, Addr: front.Addr(), Switch: "tor:0"})
	r.dep.MarkCongested(1<<32, true)
	return box, front
}

// TestUnreadFramesPastAnyWindowAreResent holds one worker's whole stream
// — a THello, 300 parts and a TEnd — unread behind a paused relay, then
// cuts it, so the dead connection takes all 302 frames with it. The
// worker sends the stream again once the connection is replaced, the box
// takes it in order, and the result equals the oracle on the first
// attempt. A transport that rewrote only the last 128 frames written
// delivered the stream's tail, which the box took as if nothing were
// missing: the request completed short, with no error.
func TestUnreadFramesPastAnyWindowAreResent(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	box, front := rack0Through(t, r, 5<<32)
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// w1's stream is in first, so the box knows the request's route.
	w1Parts := [][]byte{kvPart("k", 1000)}
	if err := r.workers["w1"].SendPartials("wc", req, 1, "master", w1Parts, 1); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "w1's part at the box", func() bool { return box.Stats().BytesIn == int64(len(w1Parts[0])) })

	front.Pause()
	read := front.BytesRead()
	w0Parts := make([][]byte, 300)
	for i := range w0Parts {
		w0Parts[i] = kvPart("k", 1)
	}
	w0 := r.workers["w0"]
	if err := w0.SendPartials("wc", req, 0, "master", w0Parts, 1); err != nil {
		t.Fatal(err)
	}
	toBox := w0.pool.Get(front.Addr())
	// Written, and the relay has accepted the connection, so the cut
	// severs it.
	testutil.WaitFor(t, "the stream written into the paused relay", func() bool {
		return toBox.Stats().FramesOut == 302 && front.BytesRead() > read
	})
	front.Cut()

	res := waitResult2(t, p)
	requireExact(t, res, kvOracle(t, w0Parts, w1Parts), 0)
	res.Release()
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// TestBoxRestartRecoversWithoutNewAttempt restarts a box on its own
// address in the middle of a request, with no straggler timer and no
// control loop to move the request. The box comes back empty. The worker
// that had sent through it sends its stream again, and the master
// announces the request again, each once its connection to the box is
// replaced, and the request completes exactly on its first attempt.
// Without the master's TExpect the restarted box would wait for ever.
func TestBoxRestartRecoversWithoutNewAttempt(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	box := r.boxes[0] // tor:0, rack 0's whole path
	addr := box.Addr()
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w0Parts := [][]byte{kvPart("a", 1), kvPart("k", 2)}
	if err := r.workers["w0"].SendPartials("wc", req, 0, "master", w0Parts, 1); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "w0's parts at the box", func() bool {
		return box.Stats().BytesIn == int64(len(w0Parts[0])+len(w0Parts[1]))
	})

	box.Close()
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	restarted, err := core.Start(core.Config{ID: 1 << 32, Addr: addr, Registry: reg, Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	r.boxes = append(r.boxes, restarted)

	w1Parts := [][]byte{kvPart("k", 4)}
	if err := r.workers["w1"].SendPartials("wc", req, 1, "master", w1Parts, 1); err != nil {
		t.Fatal(err)
	}
	res := waitResult2(t, p)
	requireExact(t, res, kvOracle(t, w0Parts, w1Parts), 0)
	res.Release()
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// TestReannounceSendsTheArmedCounts changes the deployment between Submit
// and a lost master→box connection. At Submit rack 1 has no live box, so
// all four workers send straight to rack 0's box, and it is told to
// expect 4. Then rack 1's boxes come back: a plan made now would send w2
// and w3 through them and give rack 0's box a count of 3. Three workers
// have delivered when the connection is cut. A re-announce of the fresh
// plan's 3 closed the box on them and forwarded an aggregate without w1's
// part, which the master took as final. The armed 4 keeps the box waiting,
// and the result is exact once w1 sends.
func TestReannounceSendsTheArmedCounts(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	const a, tor1, agg0 = 5 << 32, 2 << 32, 3 << 32
	box, front := rack0Through(t, r, a)
	told := reannounced(t, r.master)
	r.dep.MarkDead(tor1)
	r.dep.MarkDead(agg0)
	workers := []string{"w0", "w1", "w2", "w3"}
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	armed := p.boxes[a]
	p.mu.Unlock()
	if !slices.Equal(armed, []int{4}) {
		t.Fatalf("box A was armed with %v, want [4]", armed)
	}
	parts := [][][]byte{{kvPart("k", 1)}, {kvPart("k", 2)}, {kvPart("k", 4)}, {kvPart("k", 8)}}
	for _, i := range []int{0, 2, 3} {
		if err := r.workers[workers[i]].SendPartials("wc", req, i, "master", parts[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, "three parts at box A", func() bool { return box.Stats().BytesIn == int64(3*len(parts[0][0])) })

	r.dep.MarkAlive(tor1)
	r.dep.MarkAlive(agg0)
	if n := r.dep.Plan(treeplan.NewRequest(req, 0, 0, "master", workers)).Expect[a]; n != 3 {
		t.Fatalf("a fresh plan gives box A %d sources, want 3", n)
	}
	front.Cut()
	select {
	case <-told:
	case <-time.After(5 * time.Second):
		t.Fatal("the master was never told of the lost connection to box A")
	}
	if err := r.workers["w1"].SendPartials("wc", req, 1, "master", parts[1], 1); err != nil {
		t.Fatal(err)
	}
	res := waitResult2(t, p)
	requireExact(t, res, kvOracle(t, parts...), 0)
	res.Release()
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// TestLostConnectionAfterReuseResendsTheNewRequest reuses an id whose
// previous request had w0 send three parts, with the new request sending
// one. w0's old send stays queued behind an earlier request that never
// completes, and its notice is not due. The connection through rack 0's
// box is lost once w0 and w1 have sent for the new request, and w2,
// through rack 1, sends last. Each worker sends again what its map holds
// — the new request's stream, and w0 the earlier request's too — and the
// box drops the copies. w0's old stream would have been taken from the
// Seq after the new one's last frame: its third part and its TEnd.
func TestLostConnectionAfterReuseResendsTheNewRequest(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	box, front := rack0Through(t, r, 5<<32)
	workers := []string{"w0", "w1", "w2"}
	told := []<-chan string{toldOfLoss(t, r.workers["w0"]), toldOfLoss(t, r.workers["w1"])}
	stuck := nextTracedReq()
	if _, err := r.master.Submit("wc", stuck, workers, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.workers["w0"].SendPartials("wc", stuck, 0, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "the stuck request's part at the box", func() bool { return box.Stats().BytesIn > 0 })
	req := nextTracedReq()
	run := func(parts [][][]byte, cut bool) {
		t.Helper()
		p, err := r.master.Submit("wc", req, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		in := box.Stats().BytesIn
		for i := range 2 {
			if err := r.workers[workers[i]].SendPartials("wc", req, i, "master", parts[i], 1); err != nil {
				t.Fatal(err)
			}
		}
		if cut {
			testutil.WaitFor(t, "rack 0's parts at the box", func() bool {
				return box.Stats().BytesIn == in+int64(len(parts[0][0])+len(parts[1][0]))
			})
			front.Cut()
			for i, c := range told {
				select {
				case <-c:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s was never told of the lost connection", workers[i])
				}
			}
		}
		if err := r.workers["w2"].SendPartials("wc", req, 2, "master", parts[2], 1); err != nil {
			t.Fatal(err)
		}
		res := waitResult2(t, p)
		requireExact(t, res, kvOracle(t, parts...), 0)
		res.Release()
	}
	run([][][]byte{{kvPart("k", 1), kvPart("k", 2), kvPart("k", 4)}, {kvPart("k", 8)}, {kvPart("k", 16)}}, false)
	resent := obsResentStreams.Value()
	run([][][]byte{{kvPart("k", 32)}, {kvPart("k", 64)}, {kvPart("k", 128)}}, true)
	if got := obsResentStreams.Value() - resent; got != 3 {
		t.Fatalf("w0 and w1 re-sent %d streams after the loss, want 3: the new request's two and the stuck one", got)
	}
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// TestBoxOutboundHopStaysWithStragglerTimer cuts the box→master
// connection while it holds the box's result unread. A box keeps nothing
// once it has forwarded, so nothing sends the result again on the same
// attempt: the straggler timer moves the request, and it completes
// exactly on attempt 1.
func TestBoxOutboundHopStaysWithStragglerTimer(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, time.Second)
	resultAddr, _ := r.dep.ResultAddr("master")
	front := testutil.NewRelay(t, resultAddr)
	r.dep.SetResultAddr("master", front.Addr())
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	front.Pause()
	parts := [][][]byte{{kvPart("k", 1)}, {kvPart("k", 2)}}
	for i, w := range []string{"w0", "w1"} {
		if err := r.workers[w].SendPartials("wc", req, i, "master", parts[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, "the box's result to be held", func() bool { return front.BytesRead() > 0 })
	front.Cut()

	res := waitResult2(t, p)
	requireExact(t, res, kvOracle(t, parts...), 1)
	res.Release()
	r.close()
	poolBalance(t, before, 5*time.Second)
}

// TestLostConnectionToAbandonedBoxResendsNothing: a request redirected off
// box A routes elsewhere at its new attempt, so when the connection to A
// is later lost, the worker sends nothing of it to A again. The request
// completes on the new attempt exactly, and every buffer is back by Close.
func TestLostConnectionToAbandonedBoxResendsNothing(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	const a, b = 5 << 32, 4 << 32
	boxA, front := rack0Through(t, r, a)
	r.addBox(t, b, "tor:0")
	r.dep.MarkCongested(b, true)
	workers := []string{"w0", "w1"}
	req := nextTracedReq()
	p, err := r.master.Submit("wc", req, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := r.workers["w0"], r.workers["w1"]
	told := toldOfLoss(t, w0)
	if err := w0.SendPartials("wc", req, 0, "master", [][]byte{kvPart("k", 1), kvPart("k", 2)}, 1); err != nil {
		t.Fatal(err)
	}
	toA := w0.pool.Get(front.Addr())
	if sent := toA.Stats().FramesOut; sent != 4 {
		t.Fatalf("w0 sent %d frames through box A, want its THello, two TData and TEnd", sent)
	}
	testutil.WaitFor(t, "w0's parts at box A", func() bool { return boxA.Stats().BytesIn == int64(2*len(kvPart("k", 1))) })

	r.dep.MarkCongested(b, false)
	r.dep.MarkCongested(a, true)
	if n := r.master.Supersede(a, "migrate"); n != 1 {
		t.Fatalf("Supersede moved %d requests, want 1", n)
	}
	testutil.WaitFor(t, "w0 to apply the redirect", func() bool { return w0.lastAttemptOf("wc", req) == 1 })
	resent := obsResentStreams.Value()
	front.Cut()
	select {
	case <-told:
	case <-time.After(5 * time.Second):
		t.Fatal("the loss of the connection to A was never told")
	}
	if got, sent := obsResentStreams.Value()-resent, toA.Stats().FramesOut; got != 0 || sent != 4 {
		t.Fatalf("after the loss w0 re-sent %d streams, %d frames in all through A; want none, 4", got, sent)
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
