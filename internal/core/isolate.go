package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"netagg/internal/agg"
)

// The paper leaves "mechanisms for isolating faulty or malicious
// aggregation tasks to future work" (§3.2.1). This file implements the
// straightforward part: aggregation functions run inside a panic guard, and
// an application whose function keeps crashing is quarantined — the box
// stops accepting its requests and reports errors upstream instead of
// taking the whole middlebox down with it.

// maxCrashes is how many aggregation panics quarantine an application.
const maxCrashes = 3

// faultGuard tracks per-application crash counts.
type faultGuard struct {
	mu          sync.Mutex
	crashes     map[string]int
	quarantined map[string]bool
}

func newFaultGuard() *faultGuard {
	return &faultGuard{
		crashes:     make(map[string]int),
		quarantined: make(map[string]bool),
	}
}

// Quarantined reports whether an application has been disabled.
func (g *faultGuard) Quarantined(app string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.quarantined[app]
}

// recordCrash counts one crash and returns true if the application just
// crossed the quarantine threshold.
func (g *faultGuard) recordCrash(app string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.quarantined[app] {
		return false
	}
	g.crashes[app]++
	if g.crashes[app] >= maxCrashes {
		g.quarantined[app] = true
		return true
	}
	return false
}

// guardedAggregator wraps an application's aggregation function with panic
// isolation: a panicking Merge becomes an error on the request instead of
// crashing the box, and repeated panics quarantine the application.
type guardedAggregator struct {
	app   string
	inner agg.Aggregator
	guard *faultGuard
}

// Merge implements agg.Aggregator with panic isolation.
func (g guardedAggregator) Merge(dst []byte, parts [][]byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if g.guard.recordCrash(g.app) {
				err = fmt.Errorf("core: application %q quarantined after repeated crashes (last: %v)", g.app, r)
			} else {
				err = fmt.Errorf("core: aggregation function %q panicked: %v", g.app, r)
			}
		}
	}()
	return g.inner.Merge(dst, parts)
}

// Combine implements agg.Aggregator under the same guard: like every
// built-in, it is the two-part Merge.
func (g guardedAggregator) Combine(a, b []byte) ([]byte, error) {
	return g.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Quarantined reports whether the box has disabled an application's
// aggregation function after repeated crashes.
func (b *Box) Quarantined(app string) bool {
	return b.guard.Quarantined(app)
}
