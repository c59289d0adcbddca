package agg

import (
	"encoding/binary"
	"time"
)

// VirtualCost wraps an aggregator with an emulated, size-proportional
// processing cost. The paper's CPU-intensive functions (categorise) were
// evaluated on 16-core servers; this repository's reference host exposes a
// single CPU, so real spinning cannot show parallel scaling. Sleeping for a
// duration proportional to the merged input instead keeps per-task cost and
// the scheduler's contention structure faithful while letting pool-size
// scaling (Figs 15, 20, 21) remain observable. The substitution is recorded
// in DESIGN.md.
type VirtualCost struct {
	// Inner performs the actual aggregation.
	Inner Aggregator
	// PerKB is the emulated processing time per kilobyte of combined input.
	PerKB time.Duration
}

// Combine implements Aggregator.
func (v VirtualCost) Combine(a, b []byte) ([]byte, error) {
	return v.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Merge implements Aggregator: one sleep for the whole merged input, then
// the inner merge.
func (v VirtualCost) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	if v.PerKB > 0 {
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		time.Sleep(time.Duration(float64(total) / 1024 * float64(v.PerKB)))
	}
	return v.Inner.Merge(dst, parts)
}
