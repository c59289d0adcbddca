//go:build netaggdebug

package bufpool

// The netaggdebug runtime checker: a use after Release leaves the
// reference counts balanced, so only the bytes can show it. Every buffer
// recycled into the pool is overwritten
// with poison; every buffer handed back out is checked still-poisoned.
// A holder that kept writing through a stale slice after its Release
// (the classic recycled-buffer race that `-race` cannot flag, because
// the pool makes the memory "validly" shared) therefore panics in the
// next Get instead of corrupting an unrelated request's payload.
//
// Build with `go test -tags netaggdebug ./...` (see OPERATIONS.md).

// DebugEnabled reports whether the netaggdebug runtime checker is
// compiled in.
const DebugEnabled = true

// poisonByte fills recycled buffers; 0xDB is unlikely to be a valid
// prefix of any wire payload and reads obviously in hex dumps.
const poisonByte = 0xDB

// debugPoison overwrites the full backing array before the buffer
// re-enters the pool.
func debugPoison(b *Buf) {
	for i := range b.p {
		b.p[i] = poisonByte
	}
}

// debugCheckGet verifies the poison pattern on a buffer coming out of
// the pool. A fresh allocation (zeroed, never poisoned) is exempt: the
// New closure marks it by leaving n == 0 and the pool only ever stores
// poisoned buffers, so any non-poison byte here was written through a
// stale reference while the buffer sat in the pool.
func debugCheckGet(b *Buf) {
	for i, c := range b.p {
		if c != poisonByte && c != 0 {
			panic("bufpool: buffer modified while pooled (use after Release), offset " + itoa(i))
		}
	}
}

// itoa avoids importing strconv into the panic path.
func itoa(v int) string {
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
