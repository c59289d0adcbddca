// Negative fixtures: the correct counterpart of every positive case.
// The analyzer must stay silent on all of them.
package core

import "netagg/internal/bufpool"

// releaseOnEveryPath mirrors leakOnErrorPath with the error path fixed.
func releaseOnEveryPath(n int, err error) error {
	b := bufpool.Get(n)
	if err != nil {
		b.Release()
		return err
	}
	b.Release()
	return nil
}

// deferRelease covers every exit with one statement.
func deferRelease(n int, err error) error {
	b := bufpool.Get(n)
	defer b.Release()
	if err != nil {
		return err
	}
	return nil
}

// deferClosureRelease is the closure form the analyzer understands.
func deferClosureRelease(n int) {
	b := bufpool.Get(n)
	defer func() {
		b.Release()
	}()
}

// returnTransfers hands the reference to the caller.
func returnTransfers(n int) *bufpool.Buf {
	b := bufpool.Get(n)
	return b
}

// boundRetain keeps the new reference and releases it.
func boundRetain(b *bufpool.Buf) {
	c := b.Retain()
	c.Release()
}

// sink takes ownership by contract; callers transfer without markers.
//
//netagg:owns part
func sink(part *bufpool.Buf) {
	part.Release()
}

// transferToSink relies on the callee's //netagg:owns annotation.
func transferToSink(n int) {
	b := bufpool.Get(n)
	sink(b)
}

type keeper struct {
	bufs []*bufpool.Buf
	ch   chan *bufpool.Buf
}

// markedHandOffs declares each store/send/goroutine transfer.
func (k *keeper) markedHandOffs(n int) {
	a := bufpool.Get(n)
	k.bufs = append(k.bufs, a) //netagg:owns a
	b := bufpool.Get(n)
	k.ch <- b //netagg:owns b
	c := bufpool.Get(n)
	go func() { c.Release() }() //netagg:owns c
}

// borrowLocally slices a borrowed payload into a locally built value
// and returns it: the borrow propagates to the caller, which still
// holds the frame alive. This is the wire.DecodeFanout pattern.
//
//netagg:borrows p
func borrowLocally(p []byte) []byte {
	p = p[1:]
	return p[:4:4]
}

// switchReleasesEverywhere merges clean across all clauses.
func switchReleasesEverywhere(n, mode int) {
	b := bufpool.Get(n)
	switch mode {
	case 0:
		b.Release()
	default:
		b.Release()
	}
}

// aliasTransfer moves the obligation with the alias.
func aliasTransfer(n int) {
	b := bufpool.Get(n)
	c := b
	c.Release()
}

// allowedDouble documents a deliberate protocol violation for a test
// rig; the suppression carries its reason.
func allowedDouble(n int) {
	b := bufpool.Get(n)
	b.Release()
	b.Release() //lint:ignore bufown recycling fixture exercises the pool's double-free panic
}
