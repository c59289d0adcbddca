// Package stats provides deterministic random number generation and the
// statistical distributions used by the NetAgg workload model:
// bounded-Pareto flow sizes, power-law (Zipf-like) worker fan-in, and
// exponential inter-arrival times. All generators are seeded explicitly so
// simulations and benchmarks are reproducible run to run.
package stats

import (
	"math"
	"math/rand"
)

// Rand is a deterministic source of random variates. It wraps math/rand.Rand
// with the distributions the workload generator needs. It is not safe for
// concurrent use; create one Rand per goroutine (see Split).
type Rand struct {
	r *rand.Rand
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent Rand from this one. The derived generator's
// stream is a deterministic function of the parent state, so splitting at the
// same point in two runs yields identical children.
func (rn *Rand) Split() *Rand {
	return NewRand(rn.r.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (rn *Rand) Float64() float64 { return rn.r.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (rn *Rand) Intn(n int) int { return rn.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (rn *Rand) Int63() int64 { return rn.r.Int63() }

// Uint64 returns a uniform 64-bit integer.
func (rn *Rand) Uint64() uint64 { return rn.r.Uint64() }

// Perm returns a random permutation of [0, n).
func (rn *Rand) Perm(n int) []int { return rn.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (rn *Rand) Shuffle(n int, swap func(i, j int)) { rn.r.Shuffle(n, swap) }

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (rn *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp requires mean > 0")
	}
	return rn.r.ExpFloat64() * mean
}

// BoundedPareto returns a Pareto(xm, alpha) variate truncated to [xm, max]
// by inverse-CDF sampling of the truncated distribution (not rejection, so
// it always terminates). It panics unless 0 < xm < max and alpha > 0.
func (rn *Rand) BoundedPareto(xm, max, alpha float64) float64 {
	if xm <= 0 || max <= xm || alpha <= 0 {
		panic("stats: BoundedPareto requires 0 < xm < max and alpha > 0")
	}
	u := rn.r.Float64()
	la := math.Pow(xm, alpha)
	ha := math.Pow(max, alpha)
	// Inverse CDF of the truncated Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < xm {
		x = xm
	}
	if x > max {
		x = max
	}
	return x
}

// PowerLaw returns an integer in [min, max] drawn from a discrete power law
// with exponent s (probability of k proportional to k^-s). Used for the
// number of workers per job: most jobs are small, a few fan in very wide.
// It panics unless 1 <= min <= max and s > 0.
func (rn *Rand) PowerLaw(min, max int, s float64) int {
	if min < 1 || max < min || s <= 0 {
		panic("stats: PowerLaw requires 1 <= min <= max and s > 0")
	}
	if min == max {
		return min
	}
	// Continuous power-law inverse CDF on [min, max+1), floored. For s == 1
	// the integral is logarithmic, handled separately.
	u := rn.r.Float64()
	lo, hi := float64(min), float64(max+1)
	var x float64
	if math.Abs(s-1) < 1e-9 {
		x = lo * math.Pow(hi/lo, u)
	} else {
		p := 1 - s
		x = math.Pow(u*(math.Pow(hi, p)-math.Pow(lo, p))+math.Pow(lo, p), 1/p)
	}
	k := int(x)
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}

// Zipf returns an integer in [0, n) with probability proportional to
// 1/(k+1)^s. Used by the synthetic corpus for vocabulary selection.
func (rn *Rand) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("stats: Zipf requires n > 0")
	}
	return rn.PowerLaw(1, n, s) - 1
}
