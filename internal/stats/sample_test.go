package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant stream = %g, want 7", e.Value())
	}
}

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	if e.Initialized() {
		t.Fatal("fresh EWMA must not be initialized")
	}
	e.Observe(42)
	if e.Value() != 42 || !e.Initialized() {
		t.Fatalf("first observation must seed the average, got %g", e.Value())
	}
}

func TestEWMAPropertyBounded(t *testing.T) {
	// The EWMA always stays within the min/max of the observed values.
	check := func(seed int64) bool {
		rn := NewRand(seed)
		e := NewEWMA(0.01 + 0.98*rn.Float64())
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 100; i++ {
			v := rn.Float64() * 1000
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			e.Observe(v)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %g: expected panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}
