package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// sliceRates cuts [0, window) into n equal slices and returns the jobs per
// second in each. A job counts in a slice by the share of its own
// [start, end] that falls inside it, so where a slice boundary falls moves
// a rate by a fraction of a job, not by a whole one; the part of a job
// that runs past the window counts nowhere.
func sliceRates(samples []sample, window time.Duration, n int) []float64 {
	rates := make([]float64, n)
	width := window / time.Duration(n)
	if width <= 0 {
		return rates
	}
	for _, s := range samples {
		if s.end <= s.start {
			continue
		}
		for i := int(s.start / width); i < n && time.Duration(i)*width < s.end; i++ {
			lo, hi := max(s.start, time.Duration(i)*width), min(s.end, time.Duration(i+1)*width)
			rates[i] += float64(hi-lo) / float64(s.end-s.start)
		}
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// ratio is a/b, or 0 when b is 0: a counter pair that saw no events
// reports 0 instead of poisoning the JSON result with NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
