package simnet

import "testing"

// TestAllocateDoesNotAllocate is the rate allocation of the allocate
// benchmarks, once their scratch has grown: 0 allocations an event. The
// sparse row rebuilds 256 small components, the dense row drags one
// 512-flow component through the waterfill from a single dirty flow, and
// the oracle row (FullRecompute) gives the 255 clean components of the
// sparse set their single waterfill.
func TestAllocateDoesNotAllocate(t *testing.T) {
	t.Run("sparse-all-dirty", func(t *testing.T) {
		s, active := benchSparse(256, 4)
		s.allocate(active)
		if n := testing.AllocsPerRun(100, func() {
			markAllDirty(s, active)
			s.allocate(active)
		}); n != 0 {
			t.Fatalf("allocate allocates %v times a run, want 0", n)
		}
	})
	oneDirty := func(t *testing.T, s *Sim, active []FlowID) {
		t.Helper()
		s.allocate(active)
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			s.markFlowDirty(active[i%len(active)])
			s.allocate(active)
			i++
		}); n != 0 {
			t.Fatalf("allocate allocates %v times a run, want 0", n)
		}
	}
	t.Run("dense-one-dirty", func(t *testing.T) {
		s, active := benchDense(512)
		oneDirty(t, s, active)
	})
	t.Run("sparse-one-dirty-full-recompute", func(t *testing.T) {
		s, active := benchSparse(256, 4)
		s.FullRecompute = true
		oneDirty(t, s, active)
	})
}
