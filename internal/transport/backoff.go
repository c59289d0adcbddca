package transport

import (
	"math/rand"
	"time"
)

// backoffFactor is the per-failure growth multiplier of the re-dial delay.
const backoffFactor = 2

// Backoff is a jittered exponential re-dial policy: the nth consecutive
// failure delays the next attempt by Min·backoffFactor^(n-1), capped at
// Max, with ±Jitter randomisation so a fleet of clients reconnecting to
// a restarted box does not re-dial in lockstep. The zero value uses the
// defaults (50ms..5s, 20% jitter).
type Backoff struct {
	// Min is the delay after the first failure (default 50ms).
	Min time.Duration
	// Max caps the delay (default 5s).
	Max time.Duration
	// Jitter is the fraction of the delay randomised, in [0,1): the
	// delay is scaled by a uniform factor in [1-Jitter, 1+Jitter]
	// (default 0.2).
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Jitter <= 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	return b
}

// Delay returns the wait before the next dial after `failures`
// consecutive failures (failures >= 1).
func (b Backoff) Delay(failures int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Min)
	for i := 1; i < failures; i++ {
		d *= backoffFactor
		if d >= float64(b.Max) {
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		// transport is real-network code, outside the simulator's
		// seeded-determinism scope, so the global source is fine here.
		d *= 1 - b.Jitter + 2*b.Jitter*rand.Float64()
	}
	return time.Duration(d)
}
