package core

import (
	"log"
	"net"
	"sync"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/wire"
)

// testRegistry registers the word-count combiner under "wc".
func testRegistry() *agg.Registry {
	r := agg.NewRegistry()
	r.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	return r
}

// resultSink is a minimal master-side result listener.
type resultSink struct {
	ln      net.Listener
	results chan *wire.Msg
}

func newResultSink(t *testing.T) *resultSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &resultSink{ln: ln, results: make(chan *wire.Msg, 64)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				r := wire.NewReader(conn)
				for {
					m, err := r.Read()
					if err != nil {
						conn.Close()
						return
					}
					s.results <- m
				}
			}()
		}
	}()
	return s
}

func (s *resultSink) addr() string { return s.ln.Addr().String() }

func (s *resultSink) wait(t *testing.T) *wire.Msg {
	t.Helper()
	select {
	case m := <-s.results:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no result received")
		return nil
	}
}

func (s *resultSink) close() { s.ln.Close() }

// sendStream writes a worker's partial-result stream to addr. It reports
// failures with t.Error so it is safe to run on its own goroutine.
func sendStream(t *testing.T, addr string, app string, req, source uint64, route []string, parts [][]byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	msgs := []*wire.Msg{{Type: wire.THello, App: app, Req: req, Source: source, Payload: wire.EncodeStrings(route)}}
	for i, p := range parts {
		msgs = append(msgs, &wire.Msg{Type: wire.TData, App: app, Req: req, Source: source, Seq: uint64(i), Payload: p})
	}
	msgs = append(msgs, &wire.Msg{Type: wire.TEnd, App: app, Req: req, Source: source, Seq: uint64(len(parts))})
	if _, err := wire.NewVectorWriter(conn).WriteBatch(msgs); err != nil {
		t.Error(err)
	}
}

// sendFrame writes one frame on an already dialled connection.
func sendFrame(t *testing.T, conn net.Conn, m *wire.Msg) {
	t.Helper()
	if _, err := wire.NewVectorWriter(conn).WriteBatch([]*wire.Msg{m}); err != nil {
		t.Fatal(err)
	}
}

func sendExpect(t *testing.T, addr, app string, req uint64, count int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendFrame(t, conn, &wire.Msg{Type: wire.TExpect, App: app, Req: req, Payload: wire.EncodeCount(count)})
}

func TestBoxAggregatesAndDelivers(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()

	route := []string{sink.addr()}
	sendExpect(t, box.Addr(), "wc", 7, 3)
	for w := 0; w < 3; w++ {
		go sendStream(t, box.Addr(), "wc", 7, uint64(w), route, [][]byte{
			agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
			agg.EncodeKVs([]agg.KV{{Key: "b", Val: 2}}),
		})
	}
	m := sink.wait(t)
	if m.Type != wire.TResult || m.App != "wc" || m.Req != 7 {
		t.Fatalf("unexpected result frame %+v", m)
	}
	kvs, err := agg.DecodeKVs(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Val != 3 || kvs[1].Val != 6 {
		t.Fatalf("bad aggregation: %v", kvs)
	}
	st := box.Stats()
	if st.Requests != 1 || st.BytesIn == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoxChainsToNextBox(t *testing.T) {
	reg := testRegistry()
	box2, err := Start(Config{ID: 2 << 32, Registry: reg, Workers: 2, SchedSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer box2.Close()
	box1, err := Start(Config{ID: 1 << 32, Registry: reg, Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box1.Close()
	sink := newResultSink(t)
	defer sink.close()

	// Two workers feed box1; box1 forwards to box2; a third worker feeds
	// box2 directly; box2 delivers to the master.
	sendExpect(t, box1.Addr(), "wc", 9, 2)
	sendExpect(t, box2.Addr(), "wc", 9, 2) // box1 + the direct worker
	routeViaBox2 := []string{box2.Addr(), sink.addr()}
	for w := 0; w < 2; w++ {
		go sendStream(t, box1.Addr(), "wc", 9, uint64(w), routeViaBox2, [][]byte{
			agg.EncodeKVs([]agg.KV{{Key: "k", Val: 10}}),
		})
	}
	go sendStream(t, box2.Addr(), "wc", 9, 5, []string{sink.addr()}, [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "k", Val: 100}}),
	})

	m := sink.wait(t)
	if m.Type != wire.TResult {
		t.Fatalf("unexpected frame %s", m.Type)
	}
	kvs, err := agg.DecodeKVs(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Val != 120 {
		t.Fatalf("bad chained aggregation: %v", kvs)
	}
}

func TestBoxReportsCombineError(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()

	sendExpect(t, box.Addr(), "wc", 11, 1)
	sendStream(t, box.Addr(), "wc", 11, 0, []string{sink.addr()}, [][]byte{
		{0xde, 0xad}, {0xbe, 0xef}, // undecodable pair forces a combine error
	})
	m := sink.wait(t)
	if m.Type != wire.TError {
		t.Fatalf("expected TError, got %s", m.Type)
	}
}

func TestBoxHeartbeatEcho(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	conn, err := net.Dial("tcp", box.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := wire.NewReader(conn)
	sendFrame(t, conn, &wire.Msg{Type: wire.THeartbeat, Seq: 42})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.THeartbeat || m.Seq != 42 {
		t.Fatalf("bad heartbeat echo %+v", m)
	}
}

// An idle box's load signal decays: a heartbeat reply that finds no
// request open and none finished since the previous reply takes the
// flush-latency average to ⅞ of itself. One slow request no longer leaves
// an idle box above the 20 ms default of ReplanPolicy.HotLoadUs, which got
// idle boxes migrated; a busy box keeps its signal.
func TestIdleBoxFlushLatencyDecays(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("slow", slowAggregator{delay: 30 * time.Millisecond})
	box, err := Start(Config{ID: 1 << 32, Registry: reg, Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()
	sendExpect(t, box.Addr(), "slow", 1, 1)
	sendStream(t, box.Addr(), "slow", 1, 0, []string{sink.addr()}, [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
		agg.EncodeKVs([]agg.KV{{Key: "b", Val: 1}}),
	})
	if m := sink.wait(t); m.Type != wire.TResult {
		t.Fatalf("expected TResult, got %s", m.Type)
	}
	if v := box.FlushLatencyUs(); v < 30_000 {
		t.Fatalf("flush latency %d µs after a 30 ms merge", v)
	}
	// A loaded host adds its own delay to the merge's 30 ms; the decay is
	// judged from the 30 ms alone.
	box.mu.Lock()
	box.flushUs = 30_000
	box.mu.Unlock()

	conn, err := net.Dial("tcp", box.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := wire.NewReader(conn)
	heartbeat := func(seq uint64) int64 {
		t.Helper()
		sendFrame(t, conn, &wire.Msg{Type: wire.THeartbeat, Seq: seq})
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		_, flushUs, err := wire.DecodeLoad(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return flushUs
	}
	if got := heartbeat(0); got != 30_000 {
		t.Fatalf("the reply that saw the request finish reported %d µs, want 30000", got)
	}
	// A request held open — one of its two sources has not ended — keeps
	// the box busy, however long it takes: its signal does not decay.
	sendExpect(t, box.Addr(), "slow", 2, 2)
	sendStream(t, box.Addr(), "slow", 2, 0, []string{sink.addr()}, [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
	})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		box.mu.Lock()
		req := box.requests[reqKey{app: "slow", req: 2}]
		open := req != nil && req.expected == 2 && req.frames == 1
		box.mu.Unlock()
		if open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second request never opened")
		}
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if got := heartbeat(seq); got != 30_000 {
			t.Fatalf("heartbeat %d with a request open reported %d µs, want 30000", seq, got)
		}
	}
	// The janitor collects it; from then on the box is idle.
	box.sweep(time.Now().Add(idleTimeout + time.Second))
	var got int64
	for seq := uint64(5); seq <= 8; seq++ {
		got = heartbeat(seq)
	}
	if got >= 20_000 || got != box.FlushLatencyUs() {
		t.Fatalf("after four idle heartbeats: reply %d µs, FlushLatencyUs %d µs, want both under 20000", got, box.FlushLatencyUs())
	}
}

func TestBoxEmptyRequest(t *testing.T) {
	// A request whose only input sends End with no Data yields an empty
	// result (the master shim emulates empty partials, §3.2.2).
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()
	sendExpect(t, box.Addr(), "wc", 13, 1)
	sendStream(t, box.Addr(), "wc", 13, 0, []string{sink.addr()}, nil)
	m := sink.wait(t)
	if m.Type != wire.TResult || len(m.Payload) != 0 {
		t.Fatalf("expected empty result, got %+v", m)
	}
}

func TestBoxIgnoresLateData(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()
	sendExpect(t, box.Addr(), "wc", 17, 1)
	sendStream(t, box.Addr(), "wc", 17, 0, []string{sink.addr()}, [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "x", Val: 1}}),
	})
	sink.wait(t)
	// Late duplicate data (recovery scenario) must not produce a second
	// result or crash the box.
	conn, err := net.Dial("tcp", box.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, &wire.Msg{Type: wire.TData, App: "wc", Req: 17, Source: 0, Payload: agg.EncodeKVs(nil)})
	conn.Close()
	select {
	case m := <-sink.results:
		t.Fatalf("unexpected second result %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
}

// The janitor's sweep must collect a request whose senders went quiet:
// the request is forgotten, its buffered part goes back to the pool, and
// data that arrives for it afterwards is dropped instead of reopening it.
func TestJanitorSweepCollectsIdleRequest(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	key := reqKey{app: "wc", req: 21}
	open := func() bool {
		box.mu.Lock()
		defer box.mu.Unlock()
		_, ok := box.requests[key]
		return ok
	}
	// An inbound TData frame as the transport delivers it: the frame owns
	// one reference on a pooled payload buffer.
	data := func(seq uint64) *wire.Msg {
		part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})
		buf := bufpool.Get(len(part))
		copy(buf.Bytes(), part)
		return &wire.Msg{Type: wire.TData, App: key.app, Req: key.req, Seq: seq, Payload: buf.Bytes(), Buf: buf}
	}

	before := bufpool.ReadStats()
	box.serveFrame(nil, &wire.Msg{
		Type: wire.THello, App: key.app, Req: key.req,
		Payload: wire.EncodeStrings([]string{"127.0.0.1:1"}),
	})
	box.serveFrame(nil, data(0))

	box.sweep(time.Now())
	if !open() {
		t.Fatal("sweep collected a request that had traffic a moment ago")
	}
	box.sweep(time.Now().Add(idleTimeout + time.Second))
	if open() {
		t.Fatal("sweep left a request idle for longer than idleTimeout")
	}
	box.serveFrame(nil, data(1))
	if open() {
		t.Fatal("late data reopened a collected request")
	}

	after := bufpool.ReadStats()
	if acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases; acq != rel {
		t.Fatalf("bufpool unbalanced after the sweep: %d acquires vs %d releases", acq, rel)
	}
}

// blockingWriter parks its first Write until released, and says when it
// has been entered.
type blockingWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

// Close must outlast a request that is already finishing: once the tree
// has fired its callback the request is in nobody's table walk, but it
// holds the result buffer until finishRequest returns. The stall here is
// the log line of a request that completes without a route.
func TestCloseWaitsForFinishingRequest(t *testing.T) {
	box, err := Start(Config{ID: 1 << 32, Registry: testRegistry(), Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	stall := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	defer log.SetOutput(log.Writer())
	log.SetOutput(stall)

	before := bufpool.ReadStats()
	part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})
	buf := bufpool.Get(len(part))
	copy(buf.Bytes(), part)
	box.serveFrame(nil, &wire.Msg{Type: wire.TExpect, App: "wc", Req: 23, Payload: wire.EncodeCount(1)})
	box.serveFrame(nil, &wire.Msg{Type: wire.TData, App: "wc", Req: 23, Payload: buf.Bytes(), Buf: buf})
	box.serveFrame(nil, &wire.Msg{Type: wire.TEnd, App: "wc", Req: 23, Seq: 1})
	select {
	case <-stall.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never finished")
	}

	closed := make(chan struct{})
	go func() {
		box.Close()
		close(closed)
	}()
	var early bool
	select {
	case <-closed:
		early = true
	case <-time.After(100 * time.Millisecond):
	}
	close(stall.release)
	<-closed
	if early {
		t.Fatal("Close returned while a finishing request still held its result buffer")
	}
	after := bufpool.ReadStats()
	if acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases; acq != rel {
		t.Fatalf("bufpool unbalanced after Close: %d acquires vs %d releases", acq, rel)
	}
}
