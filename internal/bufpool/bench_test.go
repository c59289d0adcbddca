package bufpool

import "testing"

// BenchmarkBufpoolGetRelease is the steady-state cost of the pool hot
// path: one Get and one Release per iteration at a typical partial-
// result size. The target is 0 allocs/op — the whole point of the pool
// — enforced by TestHotPathDoesNotAllocate and visible in the
// BENCH_bufpool.json artifact.
func BenchmarkBufpoolGetRelease(b *testing.B) {
	for _, size := range []int{512, 4096, 65536} {
		b.Run(sizeName(size), func(b *testing.B) {
			// Warm the class so the timed loop measures recycling.
			Get(size).Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Get(size).Release()
			}
		})
	}
}

// BenchmarkBufpoolRetainRelease measures the per-hand-off cost (one
// reference minted and dropped).
func BenchmarkBufpoolRetainRelease(b *testing.B) {
	buf := Get(4096)
	defer buf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Retain().Release()
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1MiB+"
	case n >= 1024:
		return itoaTest(n/1024) + "KiB"
	default:
		return itoaTest(n) + "B"
	}
}

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
