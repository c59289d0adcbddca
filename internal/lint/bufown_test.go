package lint

import (
	"strings"
	"testing"
)

// runBufown runs the bufown analyzer over one non-test fixture file.
func runBufown(t *testing.T, src string) []Finding {
	t.Helper()
	return runMulti(t, map[string]string{"internal/core/x.go": src}, "bufown")
}

const bufownHeader = `package core
import "netagg/internal/bufpool"
`

func wantBufown(t *testing.T, got []Finding, wants ...string) {
	t.Helper()
	if len(got) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(wants), got)
	}
	for i, want := range wants {
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, want)
		}
	}
}

func TestBufownLeakOnErrorPath(t *testing.T) {
	got := runBufown(t, bufownHeader+`
func f(n int, err error) error {
	b := bufpool.Get(n)
	if err != nil {
		return err
	}
	b.Release()
	return nil
}
`)
	wantBufown(t, got, `reference "b"`)
	if got[0].Line != 7 {
		t.Errorf("leak reported at line %d, want 7 (the leaking return)", got[0].Line)
	}
}

func TestBufownReleaseOnAllPathsIsSilent(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int, err error) error {
	b := bufpool.Get(n)
	if err != nil {
		b.Release()
		return err
	}
	b.Release()
	return nil
}
`))
}

func TestBufownDeferReleaseIsSilent(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int, err error) error {
	b := bufpool.Get(n)
	defer b.Release()
	if err != nil {
		return err
	}
	return nil
}
`))
}

func TestBufownDeferClosureReleaseIsSilent(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	defer func() {
		b.Release()
	}()
}
`))
}

func TestBufownDoubleRelease(t *testing.T) {
	got := runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	b.Release()
	b.Release()
}
`)
	wantBufown(t, got, `double Release of "b"`)
}

func TestBufownLeakAtFunctionEnd(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	_ = b
}
`), `reference "b"`)
}

func TestBufownReturnTransfersOwnership(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) *bufpool.Buf {
	b := bufpool.Get(n)
	return b
}
`))
}

func TestBufownCalleeReturningBufIsAcquire(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func fresh(n int) *bufpool.Buf {
	return bufpool.Get(n)
}
func g() {
	b := fresh(8)
	_ = b
}
`), `reference "b"`)
}

func TestBufownRetainIsAcquire(t *testing.T) {
	got := runBufown(t, bufownHeader+`
func f(b *bufpool.Buf) {
	c := b.Retain()
	_ = c
}
`)
	wantBufown(t, got, `reference "c"`)
}

func TestBufownDiscardedRetain(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(b *bufpool.Buf) {
	b.Retain()
}
`), "result of b.Retain() is discarded")
}

func TestBufownDiscardedRetainWithMarkerIsSilent(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(b *bufpool.Buf) {
	_ = b.Retain() //netagg:owns b
}
`))
}

func TestBufownOwnsParamMustBeDischarged(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
//netagg:owns part
func f(part *bufpool.Buf, bad bool) {
	if bad {
		return
	}
	part.Release()
}
`), `reference "part"`)
}

func TestBufownTransferToOwnsAnnotatedCallee(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
//netagg:owns part
func sink(part *bufpool.Buf) {
	part.Release()
}
func g(n int) {
	b := bufpool.Get(n)
	sink(b)
}
`))
}

func TestBufownCallWithoutOwnsKeepsObligation(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func peek(b *bufpool.Buf) {}
func g(n int) {
	b := bufpool.Get(n)
	peek(b)
}
`), `reference "b"`)
}

func TestBufownStoreNeedsMarker(t *testing.T) {
	got := runBufown(t, bufownHeader+`
type holder struct{ bufs []*bufpool.Buf }
func (h *holder) keepBad(n int) {
	b := bufpool.Get(n)
	h.bufs = append(h.bufs, b)
}
func (h *holder) keepGood(n int) {
	b := bufpool.Get(n)
	h.bufs = append(h.bufs, b) //netagg:owns b
}
`)
	wantBufown(t, got, `owned reference "b" is stored`)
}

func TestBufownChannelSendNeedsMarker(t *testing.T) {
	got := runBufown(t, bufownHeader+`
func bad(ch chan *bufpool.Buf, n int) {
	b := bufpool.Get(n)
	ch <- b
}
func good(ch chan *bufpool.Buf, n int) {
	b := bufpool.Get(n)
	ch <- b //netagg:owns b
}
`)
	wantBufown(t, got, `owned reference "b" is sent on a channel`)
}

func TestBufownGoroutineCaptureNeedsMarker(t *testing.T) {
	got := runBufown(t, bufownHeader+`
func bad(n int) {
	b := bufpool.Get(n)
	go func() { b.Release() }()
}
func good(n int) {
	b := bufpool.Get(n)
	go func() { b.Release() }() //netagg:owns b
}
`)
	wantBufown(t, got, `owned reference "b" is captured by a goroutine`)
}

func TestBufownBorrowedMustNotEscape(t *testing.T) {
	got := runBufown(t, bufownHeader+`
type holder struct{ p []byte }
//netagg:borrows p
func (h *holder) bad(p []byte) {
	h.p = p
}
//netagg:borrows p
func (h *holder) worse(ch chan []byte, p []byte) {
	ch <- p
}
`)
	wantBufown(t, got, `borrowed "p" escapes`, `borrowed "p" is sent on a channel`)
}

func TestBufownBorrowedLocalUseIsSilent(t *testing.T) {
	// The DecodeFanout pattern: slicing a borrowed param into a locally
	// built value and returning it propagates the borrow to the caller.
	wantBufown(t, runBufown(t, bufownHeader+`
type payload struct{ inner []byte }
//netagg:borrows p
func decode(p []byte) *payload {
	p = p[1:]
	return &payload{inner: p[:4:4]}
}
`))
}

func TestBufownBorrowedReleaseIsFlagged(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
//netagg:borrows b
func f(b *bufpool.Buf) {
	b.Release()
}
`), `Release of borrowed "b"`)
}

func TestBufownPartialReleaseReportsMaybe(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int, sometimes bool) {
	b := bufpool.Get(n)
	if sometimes {
		b.Release()
	}
}
`), "released on some paths but not this one")
}

func TestBufownScopedLeakInsideBlock(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int, ok bool) {
	if ok {
		b := bufpool.Get(n)
		_ = b
	}
}
`), "goes out of scope without Release")
}

func TestBufownRebindLosesReference(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	b = bufpool.Get(2 * n)
	b.Release()
}
`), `"b" is rebound while still owning`)
}

func TestBufownAliasTransfers(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	c := b
	c.Release()
}
`))
}

func TestBufownSwitchMergesPaths(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n, mode int) {
	b := bufpool.Get(n)
	switch mode {
	case 0:
		b.Release()
	default:
		b.Release()
	}
}
`))
}

func TestBufownSwitchWithoutDefaultLeaks(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n, mode int) {
	b := bufpool.Get(n)
	switch mode {
	case 0:
		b.Release()
	}
}
`), "released on some paths but not this one")
}

func TestBufownAllowSuppression(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	b.Release()
	b.Release() //lint:ignore bufown intentional fixture for recycling tests
}
`))
}

func TestBufownAllowWithoutReasonIsIgnored(t *testing.T) {
	wantBufown(t, runBufown(t, bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	b.Release()
	b.Release() //lint:ignore bufown
}
`), `double Release of "b"`)
}

func TestBufownTestFilesExempt(t *testing.T) {
	got := runMulti(t, map[string]string{"internal/core/x_test.go": bufownHeader + `
func f(n int) {
	b := bufpool.Get(n)
	_ = b
}
`}, "bufown")
	wantBufown(t, got)
}

func TestBufownBufpoolPackageExempt(t *testing.T) {
	got := runMulti(t, map[string]string{"internal/bufpool/extra.go": `package bufpool
func (b *Buf) leakySelfTest() *Buf {
	c := b.Retain()
	_ = c
	return b
}
`}, "bufown")
	wantBufown(t, got)
}
