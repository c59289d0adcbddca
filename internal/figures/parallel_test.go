package figures

import (
	"testing"

	"netagg/internal/metrics"
)

// TestWorkerCountInvariance is the regression gate for the parallel scenario
// runner: a figure regenerated serially and with a worker pool must render
// byte-identically. Scenario results land in per-index slots and all
// post-processing walks those slots in order, so the only way this can fail
// is scenarios sharing mutable state (a data race) or post-processing
// depending on completion order. The figure set covers each fan-out shape:
// keyed baselines (Fig06), the batched relative-P99 grid (Fig08), and the
// strided baseline-plus-variants lists (Fig02, Fig13).
func TestWorkerCountInvariance(t *testing.T) {
	figs := []struct {
		name string
		gen  func(Options) *metrics.Report
	}{
		{"fig02", Fig02},
		{"fig06", Fig06},
		{"fig08", Fig08},
		{"fig13", Fig13},
	}
	for _, fig := range figs {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			serial := fig.gen(Options{Scale: ScaleSmall, Workers: 1}).String()
			parallel := fig.gen(Options{Scale: ScaleSmall, Workers: 4}).String()
			if serial != parallel {
				t.Fatalf("%s differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					fig.name, serial, parallel)
			}
		})
	}
}
