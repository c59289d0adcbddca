//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so a pooled
// Get allocates now and then by design; this file runs without it.

package bufpool

import "testing"

// TestHotPathDoesNotAllocate is the pool's steady state at the
// BENCH_bufpool sizes: once a class is warm, a Get, a hand-off (Retain)
// and the two Releases allocate nothing.
func TestHotPathDoesNotAllocate(t *testing.T) {
	for _, size := range []int{512, 4096, 65536} {
		t.Run(sizeName(size), func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() {
				b := Get(size)
				if b.Len() != size || len(b.Bytes()) != size {
					t.Fatalf("Get(%d) holds %d bytes", size, b.Len())
				}
				b.Retain().Release()
				b.Release()
			}); n != 0 {
				t.Fatalf("Get/Retain/Release allocate %v times a run, want 0", n)
			}
		})
	}
}
