package core

import (
	"strings"
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

// A panicking Merge becomes an error on the request, through Combine (the
// two-part Merge) as well, and the crash that reaches maxCrashes
// quarantines the application.
func TestGuardedAggregatorConvertsPanicToError(t *testing.T) {
	g := guardedAggregator{app: "x", inner: panicAggregator{}, guard: newFaultGuard()}
	if _, err := g.Merge(nil, [][]byte{nil, nil, nil}); err == nil {
		t.Fatal("expected error from panicking merge")
	}
	if _, err := g.Combine(nil, nil); err == nil {
		t.Fatal("expected error from panicking combine")
	}
	if g.guard.Quarantined("x") {
		t.Fatal("quarantined before maxCrashes")
	}
	_, err := g.Merge(nil, [][]byte{nil})
	if err == nil || !strings.Contains(err.Error(), "quarantined") || !g.guard.Quarantined("x") {
		t.Fatalf("third crash should quarantine, got %v", err)
	}
}

func TestFaultGuardQuarantineThreshold(t *testing.T) {
	g := newFaultGuard()
	if g.recordCrash("app") || g.recordCrash("app") {
		t.Fatal("the first two crashes should not quarantine")
	}
	if !g.recordCrash("app") {
		t.Fatal("third crash should quarantine")
	}
	if !g.Quarantined("app") {
		t.Fatal("app should be quarantined")
	}
	if g.recordCrash("app") {
		t.Fatal("already-quarantined app should not re-trigger")
	}
	if g.Quarantined("other") {
		t.Fatal("other apps are unaffected")
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
