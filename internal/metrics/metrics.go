// Package metrics summarises the measurements the NetAgg evaluation
// reports as percentiles of a Sample (flow completion times, per-link
// traffic, latencies), and renders aligned text tables so every figure
// prints the same rows and series as the corresponding figure in the
// paper.
package metrics

import (
	"math"
	"sort"
)

// Sample is a collection of float64 observations with percentile
// queries. The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.values) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between closest ranks. It returns NaN on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s.sort()
	if len(s.values) == 1 {
		return s.values[0]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// P99 returns the 99th percentile, the paper's primary FCT metric.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Values returns a copy of the observations in insertion-independent
// (sorted) order.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}
