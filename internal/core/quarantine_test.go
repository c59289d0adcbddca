package core

import (
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/wire"
)

// panicAggregator panics on every merge.
type panicAggregator struct{}

func (panicAggregator) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	panic("malicious aggregation function")
}

func (p panicAggregator) Combine(a, b []byte) ([]byte, error) {
	return p.Merge(nil, [][]byte{a, b})
}

// Each request of a crashing application fails with the panic's text
// until the third, which quarantines the application; from then on the
// box refuses its requests, and another application on the same box is
// unaffected.
func TestBoxQuarantineThreshold(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("x", panicAggregator{})
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	box, err := Start(Config{ID: 1 << 32, Registry: reg, Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()
	parts := [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
	}
	for req, want := range []string{
		`core: aggregation function "x" panicked: malicious aggregation function`,
		`core: aggregation function "x" panicked: malicious aggregation function`,
		`core: application "x" quarantined after repeated crashes (last: malicious aggregation function)`,
		`application "x" is quarantined`,
	} {
		if quarantined := box.Quarantined("x"); quarantined != (req == 3) {
			t.Fatalf("request %d: Quarantined = %v", req, quarantined)
		}
		sendExpect(t, box.Addr(), "x", uint64(req), 1)
		sendStream(t, box.Addr(), "x", uint64(req), 0, []string{sink.addr()}, parts)
		m := sink.wait(t)
		if m.Type != wire.TError || m.Req != uint64(req) || string(m.Payload) != want {
			t.Fatalf("request %d: %s %d %q, want TError %q", req, m.Type, m.Req, m.Payload, want)
		}
	}
	if box.Quarantined("wc") {
		t.Fatal("the healthy application is quarantined too")
	}
	sendExpect(t, box.Addr(), "wc", 99, 1)
	sendStream(t, box.Addr(), "wc", 99, 0, []string{sink.addr()}, parts)
	m := sink.wait(t)
	if m.Type != wire.TResult || m.App != "wc" {
		t.Fatalf("healthy application: unexpected frame %+v", m)
	}
	if kvs, err := agg.DecodeKVs(m.Payload); err != nil || len(kvs) != 1 || kvs[0].Val != 2 {
		t.Fatalf("healthy app broken after quarantine: %v %v", kvs, err)
	}
}

// A box hosting a crashing aggregation function must report errors upstream,
// quarantine the function, and keep serving healthy applications.
func TestBoxQuarantinesCrashingApp(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("boom", panicAggregator{})
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	box, err := Start(Config{ID: 1 << 32, Registry: reg, Workers: 2, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	sink := newResultSink(t)
	defer sink.close()

	parts := [][]byte{
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
		agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}}),
	}
	// Crash the boom app until quarantined.
	for req := uint64(1); req <= 3; req++ {
		sendExpect(t, box.Addr(), "boom", req, 1)
		sendStream(t, box.Addr(), "boom", req, 0, []string{sink.addr()}, parts)
		if box.Quarantined("boom") {
			break
		}
		m := sink.wait(t)
		if m.Type != wire.TError {
			t.Fatalf("expected TError from crashing app, got %s", m.Type)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for !box.Quarantined("boom") {
		if time.Now().After(deadline) {
			t.Fatal("app not quarantined after repeated crashes")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The healthy application still works on the same box.
	sendExpect(t, box.Addr(), "wc", 99, 1)
	sendStream(t, box.Addr(), "wc", 99, 0, []string{sink.addr()}, parts)
	for {
		m := sink.wait(t)
		if m.Type == wire.TError {
			continue // late errors from the crashing app
		}
		if m.Type != wire.TResult || m.App != "wc" {
			t.Fatalf("unexpected frame %+v", m)
		}
		kvs, err := agg.DecodeKVs(m.Payload)
		if err != nil || len(kvs) != 1 || kvs[0].Val != 2 {
			t.Fatalf("healthy app broken after quarantine: %v %v", kvs, err)
		}
		return
	}
}
