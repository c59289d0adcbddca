package simexp

import (
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/testutil"
)

// TestForEachRunsEachIndexOnce drives the worker pool directly, with n
// below, at and above the worker count: every index runs exactly once,
// ForEach returns, and no worker outlives it. A worker that missed its
// exit would spin past n and hang every figure that fans out through
// ForEach; here it fails within seconds.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	testutil.CheckLeaks(t)
	for _, workers := range []int{2, 4} {
		for _, n := range []int{0, 1, workers - 1, workers, workers + 1, 3*workers + 1} {
			runs := make([]atomic.Int32, n)
			done := make(chan struct{})
			go func() {
				defer close(done)
				ForEach(workers, n, func(i int) { runs[i].Add(1) })
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("ForEach(workers=%d, n=%d) did not return", workers, n)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("ForEach(workers=%d, n=%d): index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}
