package shim

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// fanoutSink is a worker-side listener collecting delivered payloads.
type fanoutSink struct {
	srv *transport.Server

	mu       sync.Mutex
	payloads [][]byte
}

func newFanoutSink(t *testing.T) *fanoutSink {
	t.Helper()
	s := &fanoutSink{}
	srv, err := transport.Listen(context.Background(), "127.0.0.1:0", func(_ *transport.ServerConn, m *wire.Msg) {
		defer m.Release()
		if m.Type != wire.TData {
			return
		}
		s.mu.Lock()
		s.payloads = append(s.payloads, append([]byte(nil), m.Payload...))
		s.mu.Unlock()
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.srv = srv
	t.Cleanup(srv.Close)
	return s
}

func (s *fanoutSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.payloads)
}

// TestFanoutDeliversOncePerTarget broadcasts one payload to four workers
// through the boxes: each gets it once, and once every endpoint is closed
// each box has given back the TFanout frames it handled.
func TestFanoutDeliversOncePerTarget(t *testing.T) {
	before := bufpool.ReadStats()
	r := newRig(t, 0)
	sinks := map[string]*fanoutSink{}
	targets := map[string]string{}
	for _, host := range []string{"w0", "w1", "w2", "w3"} {
		s := newFanoutSink(t)
		sinks[host] = s
		targets[host] = s.srv.Addr()
	}
	payload := []byte("iteration-7-model-parameters")
	if err := r.master.Fanout("wc", 42, payload, targets); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for host, s := range sinks {
		for s.count() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never received the broadcast", host)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if s.count() != 1 {
			t.Fatalf("worker %s received %d copies", host, s.count())
		}
		s.mu.Lock()
		got := string(s.payloads[0])
		s.mu.Unlock()
		if got != string(payload) {
			t.Fatalf("worker %s got %q", host, got)
		}
	}
	// The boxes replicated: each box should have made at least one copy.
	var copies int64
	for _, b := range r.boxes {
		copies += b.Stats().FanoutCopies
	}
	if copies == 0 {
		t.Fatal("no box participated in the fanout")
	}
	r.close()
	for _, s := range sinks {
		s.srv.Close()
	}
	poolBalance(t, before, 5*time.Second)
}

func TestFanoutDirectWhenNoBoxes(t *testing.T) {
	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master", Rack: 0})
	dep.AddHost(cluster.Host{Name: "w0", Rack: 0})
	dep.AddHost(cluster.Host{Name: "w1", Rack: 1})
	master, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master", Rack: 0}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	sinks := map[string]*fanoutSink{}
	targets := map[string]string{}
	for _, h := range []string{"w0", "w1"} {
		s := newFanoutSink(t)
		sinks[h] = s
		targets[h] = s.srv.Addr()
	}
	if err := master.Fanout("wc", 7, []byte("direct"), targets); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for host, s := range sinks {
		for s.count() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never received the direct copy", host)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestFanoutUnknownWorker(t *testing.T) {
	r := newRig(t, 0)
	err := r.master.Fanout("wc", 9, []byte("x"), map[string]string{"ghost": "127.0.0.1:1"})
	if err == nil {
		t.Fatal("expected error for unknown worker host")
	}
}

func TestFanoutCodecRoundTrip(t *testing.T) {
	in := wire.FanoutPayload{
		Inner:  []byte("payload"),
		Routes: [][]string{{"a:1", "b:2"}, {"c:3"}, {}},
	}
	out, err := wire.DecodeFanout(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Inner) != "payload" || len(out.Routes) != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if len(out.Routes[0]) != 2 || out.Routes[0][1] != "b:2" || len(out.Routes[2]) != 0 {
		t.Fatalf("routes mismatch: %+v", out.Routes)
	}
	if _, err := wire.DecodeFanout([]byte{0xff}); err == nil {
		t.Fatal("expected error for corrupt fanout payload")
	}
}

// TestFanoutDeliveryKeepsTheFrameAlive pins the one zero-copy alias on
// the data path: a box delivers a TFanout's inner payload as a TData frame
// whose Payload aliases the TFanout frame's pooled buffer, and the
// delivery's Buf reference is all that keeps that buffer alive in the
// send queue after serveFrame releases the frame. The delivery connection
// is stalled behind a relay until the box has handled (and released) the
// TFanout frames; under netaggdebug a released buffer is poisoned at once,
// so a delivery that rode on the frame without its own reference arrives
// as poison.
func TestFanoutDeliveryKeepsTheFrameAlive(t *testing.T) {
	r := newRig(t, 0)
	sink := newFanoutSink(t)
	relay := testutil.NewRelay(t, sink.srv.Addr())
	targets := map[string]string{"w0": relay.Addr()}
	copies := func() int64 {
		var n int64
		for _, b := range r.boxes {
			n += b.Stats().FanoutCopies
		}
		return n
	}
	pattern := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i%251)
		}
		return p
	}

	// The first frame on a connection is sent synchronously (it waits for
	// the dial); every later one is queued and written by the flusher.
	if err := r.master.Fanout("wc", 1, []byte("warm-up"), targets); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "the warm-up delivery", func() bool { return sink.count() == 1 })
	perFanout := copies()

	// With the relay paused, the filler fills the socket buffers and holds
	// the box's flusher, so the probe waits in the send queue.
	relay.Pause()
	filler, probe := pattern(8<<20, 1), pattern(64<<10, 7)
	for i, p := range [][]byte{filler, probe} {
		if err := r.master.Fanout("wc", uint64(2+i), p, targets); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, "the box to handle both fanouts", func() bool { return copies() == 3*perFanout })
	time.Sleep(20 * time.Millisecond) // serveFrame releases the frame after handleFanout returns
	if read := relay.BytesRead(); read >= int64(len(filler)) {
		t.Fatalf("the relay read %d bytes while paused: the filler did not stall the box's flusher", read)
	}
	relay.Resume()

	testutil.WaitFor(t, "both deliveries", func() bool { return sink.count() == 3 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, want := range [][]byte{filler, probe} {
		if got := sink.payloads[1+i]; !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Errorf("delivery %d: %d bytes differ from the %d sent, first at offset %d", i+1, len(got), len(want), at)
		}
	}
}
