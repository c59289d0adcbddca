package figures

import (
	"testing"

	"netagg/internal/simexp"
)

// TestFigPlannerLoadAwareWins checks the planner experiment's headline
// claim: under skewed per-box background load, the telemetry-weighted
// LoadAware planner steers trees off the hot boxes and beats the paper's
// hash-only OnPath planner on p99 job completion time. The whole table
// is checked at seed 1, and the saturated factor 2 at seeds 2–8 too (at
// factor 1 LoadAware wins for 7 of 8 seeds: seed 4's OnPath tail job is
// one no planner moves).
func TestFigPlannerLoadAwareWins(t *testing.T) {
	r := FigPlanner(small)
	rows := tableRows(t, r)
	if len(rows) != len(plannerFactors) {
		t.Fatalf("expected %d rows, got %d:\n%s", len(plannerFactors), len(rows), r)
	}
	// Columns: bg_factor, onpath_p99, loadaware_p99.
	for _, row := range rows {
		factor, onpath, loadaware := row[0], row[1], row[2]
		if onpath <= 0 || loadaware <= 0 {
			t.Fatalf("degenerate p99 at factor %v:\n%s", factor, r)
		}
		if factor >= 1 && loadaware >= onpath {
			t.Errorf("factor %v: loadaware p99 %v not better than onpath %v", factor, loadaware, onpath)
		}
	}
	if t.Failed() {
		t.Logf("table:\n%s", r)
	}

	const seeds, factor = 7, 2.0
	p99 := make([]float64, 2*seeds)
	simexp.ForEach(0, len(p99), func(i int) {
		o := small
		o.Seed = int64(2 + i/2)
		p99[i] = runPlanner(o, factor, i%2 == 1).JobFCT.P99()
	})
	for i := 0; i < seeds; i++ {
		if onpath, loadaware := p99[2*i], p99[2*i+1]; loadaware >= onpath {
			t.Errorf("seed %d, factor %v: loadaware p99 %v not better than onpath %v", 2+i, factor, loadaware, onpath)
		}
	}
}
