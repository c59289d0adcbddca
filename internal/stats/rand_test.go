package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("split children of identical parents must match")
		}
	}
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	rn := NewRand(2)
	for i := 0; i < 10000; i++ {
		v := rn.BoundedPareto(10, 1000, 1.05)
		if v < 10 || v > 1000 {
			t.Fatalf("bounded Pareto variate %g outside [10, 1000]", v)
		}
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// A heavy-tailed shape close to 1 should put most mass near the minimum.
	rn := NewRand(3)
	below := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if rn.BoundedPareto(10, 10000, 1.05) < 100 {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.7 {
		t.Fatalf("only %.2f of variates below 10× minimum; expected heavy skew", frac)
	}
}

func TestPowerLawRangeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rn := NewRand(seed)
		min := 1 + rn.Intn(5)
		max := min + rn.Intn(100)
		s := 0.5 + 2*rn.Float64()
		for i := 0; i < 200; i++ {
			k := rn.PowerLaw(min, max, s)
			if k < min || k > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawSkew(t *testing.T) {
	// The paper's fan-in distribution: most jobs have few workers. With
	// s = 2 on [1, 1000], the bulk of samples must be small.
	rn := NewRand(4)
	small := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if rn.PowerLaw(1, 1000, 2) <= 10 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.8 {
		t.Fatalf("only %.2f of fan-ins ≤ 10; expected power-law skew", frac)
	}
}

func TestZipfRange(t *testing.T) {
	rn := NewRand(5)
	for i := 0; i < 1000; i++ {
		k := rn.Zipf(50, 1.1)
		if k < 0 || k >= 50 {
			t.Fatalf("Zipf variate %d outside [0, 50)", k)
		}
	}
}

func TestExpMean(t *testing.T) {
	rn := NewRand(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += rn.Exp(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.2 {
		t.Fatalf("empirical mean %g, want ≈5", mean)
	}
}

func TestPanicsOnInvalidArgs(t *testing.T) {
	rn := NewRand(1)
	cases := []func(){
		func() { rn.BoundedPareto(1, 1, 1) },
		func() { rn.PowerLaw(0, 5, 1) },
		func() { rn.PowerLaw(5, 4, 1) },
		func() { rn.Exp(0) },
		func() { rn.Zipf(0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
