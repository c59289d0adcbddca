package stats

// EWMA is an exponentially weighted moving average. The agg box scheduler
// uses one per application to track task execution time (§3.2.1: "Our
// implementation uses a moving average to represent the measured task
// execution time").
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weighs recent observations more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds v into the average.
func (e *EWMA) Observe(v float64) {
	if !e.init {
		e.value = v
		e.init = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 if nothing has been observed.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one value has been observed.
func (e *EWMA) Initialized() bool { return e.init }
