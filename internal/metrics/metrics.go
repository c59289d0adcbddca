// Package metrics collects and summarises the measurements the NetAgg
// evaluation reports: flow completion time percentiles and CDFs, per-link
// traffic distributions, throughput and latency series, and the relative
// comparisons ("99th FCT relative to rack-level aggregation") used by most
// figures. It also renders aligned text tables so every benchmark prints the
// same rows/series as the corresponding figure in the paper.
package metrics

import (
	"math"
	"sort"
)

// Sample is a collection of float64 observations with percentile and CDF
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

// AddAll records all observations in vs.
func (s *Sample) AddAll(vs []float64) {
	s.values = append(s.values, vs...)
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

// Mean returns the arithmetic mean, or NaN on an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest observation, or NaN on an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation, or NaN on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum
}

// CDFPoint is one point of an empirical CDF: fraction F of observations are
// <= Value.
type CDFPoint struct {
	Value float64
	F     float64
}

// CDF returns the empirical CDF downsampled to at most points entries
// (evenly spaced in rank). It returns nil on an empty sample.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.values) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	n := len(s.values)
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		// Rank evenly spaced so the last point is the max (F = 1).
		rank := (i + 1) * n / points
		if rank < 1 {
			rank = 1
		}
		out = append(out, CDFPoint{Value: s.values[rank-1], F: float64(rank) / float64(n)})
	}
	return out
}

// Values returns a copy of the observations in insertion-independent
// (sorted) order.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Relative returns s's p-th percentile divided by base's p-th percentile.
// This is the "relative to rack-level aggregation" normalisation used
// throughout §4.1. It returns NaN if either sample is empty or the base
// percentile is zero.
func Relative(s, base *Sample, p float64) float64 {
	b := base.Percentile(p)
	if b == 0 {
		return math.NaN()
	}
	return s.Percentile(p) / b
}
