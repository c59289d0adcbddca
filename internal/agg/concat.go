package agg

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// Concat appends payloads without any reduction: the aggregator of
// non-reducible data such as TeraSort rows (identity reduce, Fig 22's TS
// bar shows no benefit). Payload format: varint count + length-prefixed
// items in byte order.
type Concat struct{}

// Combine implements Aggregator.
func (c Concat) Combine(a, b []byte) ([]byte, error) {
	return c.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// EncodeItems serialises opaque items in canonical (byte) order: a varint
// count followed by length-prefixed blobs. The input is sorted in place.
func EncodeItems(items [][]byte) []byte {
	slices.SortFunc(items, bytes.Compare)
	size := binary.MaxVarintLen64
	for _, it := range items {
		size += binary.MaxVarintLen64 + len(it)
	}
	dst := binary.AppendUvarint(make([]byte, 0, size), uint64(len(items)))
	for _, it := range items {
		dst = appendItem(dst, it)
	}
	return dst
}

// appendItem appends one item's record.
func appendItem(dst, item []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(item)))
	return append(dst, item...)
}

// DecodeItems parses a payload produced by EncodeItems. The items are
// copies: they stay valid after p's buffer is released.
func DecodeItems(p []byte) ([][]byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, ErrBadPayload
	}
	items := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		ilen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < ilen {
			return nil, ErrBadPayload
		}
		end := n + int(ilen)
		items = append(items, bytes.Clone(p[n:end]))
		p = p[end:]
	}
	if len(p) != 0 {
		return nil, ErrBadPayload
	}
	return items, nil
}

// prefixWord is an item's first eight bytes as a big-endian word, zero
// padded: what the merge compares before it compares items. It is a cache
// of the order, not the order — words that differ order their items as
// bytes.Compare does, but "ab" and "ab\x00" share a word, so a tie on the
// word always falls through to the items themselves.
func prefixWord(item []byte) uint64 {
	if len(item) >= 8 {
		return binary.BigEndian.Uint64(item)
	}
	var w uint64
	for i, b := range item {
		w |= uint64(b) << (56 - 8*i)
	}
	return w
}

// itemCursor reads one encoded items payload item by item without decoding
// it: item is a sub-slice of the part and rest shrinks past each item, so
// advancing allocates nothing and nothing is kept beside the bytes.
type itemCursor struct {
	item []byte // current item
	rest []byte // the encoded items after it
	left uint64 // items after the current one
}

// scan validates the whole part — it rejects exactly what DecodeItems
// rejects, plus items that go backwards — and positions the cursor before
// its first item. After it next cannot fail.
func (c *itemCursor) scan(part []byte) error {
	count, n := binary.Uvarint(part)
	if n <= 0 || count > uint64(len(part)-n)+1 {
		return ErrBadPayload
	}
	p := part[n:]
	*c = itemCursor{rest: p, left: count}
	var last []byte
	var lastWord uint64
	for i := uint64(0); i < count; i++ {
		ilen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < ilen {
			return ErrBadPayload
		}
		end := n + int(ilen)
		item := p[n:end]
		p = p[end:]
		word := prefixWord(item)
		if word < lastWord || word == lastWord && bytes.Compare(item, last) < 0 {
			return ErrBadPayload
		}
		last, lastWord = item, word
	}
	if len(p) != 0 {
		return ErrBadPayload
	}
	return nil
}

// next steps to the following item and returns its prefix word; ok is
// false once the part is exhausted.
func (c *itemCursor) next() (word uint64, ok bool) {
	if c.left == 0 {
		return 0, false
	}
	c.left--
	ilen, n := binary.Uvarint(c.rest)
	end := n + int(ilen)
	c.item, c.rest = c.rest[n:end], c.rest[end:]
	return prefixWord(c.item), true
}

// itemHead is one heap entry of the merge: a cursor's current word beside
// the cursor's number, so that sifting moves sixteen bytes and touches a
// cursor only on a tie.
type itemHead struct {
	word uint64
	cur  int
}

// lessItem orders two heap entries: on the word, and on a tie on the items.
func lessItem(cursors []itemCursor, a, b itemHead) bool {
	return a.word < b.word || a.word == b.word && tieLess(cursors, a.cur, b.cur)
}

// tieLess is lessItem's second step, kept out of line so that the first —
// all most comparisons need — inlines into the sift.
//
//go:noinline
func tieLess(cursors []itemCursor, a, b int) bool {
	return bytes.Compare(cursors[a].item, cursors[b].item) < 0
}

// siftItems restores the min-heap (by current item) below heap[i] after
// that entry's item grew.
func siftItems(heap []itemHead, cursors []itemCursor, i int) {
	for {
		child := 2*i + 1
		if child >= len(heap) {
			return
		}
		if r := child + 1; r < len(heap) && lessItem(cursors, heap[r], heap[child]) {
			child = r
		}
		if !lessItem(cursors, heap[child], heap[i]) {
			return
		}
		heap[i], heap[child] = heap[child], heap[i]
		i = child
	}
}

// moreItemCursors is Merge's beyond-the-stack-frame slow path (see
// moreKVCursors).
//
//go:noinline
func moreItemCursors(n int) ([]itemCursor, []itemHead) {
	return make([]itemCursor, n), make([]itemHead, n)
}

// Merge implements Aggregator as one streaming k-way heap merge over the
// encoded bytes, the items counterpart of KVCombiner.Merge: a cursor per
// part, items compared on their prefix word and only on a tie as the
// sub-slices of the input they are, the output written once. Every part
// is validated before the first byte is written, so the merge itself
// cannot fail; a part whose items go backwards is rejected with
// ErrBadPayload, as the other merges reject theirs. Equal items are all
// kept, side by side. The byte order is what keeps the fold commutative.
func (Concat) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	var cursorStack [kvStackCursors]itemCursor
	var heapStack [kvStackCursors]itemHead
	cursors, heap := cursorStack[:], heapStack[:]
	if len(parts) > kvStackCursors {
		cursors, heap = moreItemCursors(len(parts))
	}
	cursors = cursors[:len(parts)]
	var count uint64
	for i, part := range parts {
		c := &cursors[i]
		if err := c.scan(part); err != nil {
			return dst, err
		}
		count += c.left
	}
	live := 0
	for i := range cursors {
		if word, ok := cursors[i].next(); ok {
			heap[live] = itemHead{word: word, cur: i}
			live++
		}
	}
	heap = heap[:live]
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftItems(heap, cursors, i)
	}

	dst = binary.AppendUvarint(dst, count)
	for len(heap) > 0 {
		c := &cursors[heap[0].cur]
		dst = appendItem(dst, c.item)
		if word, ok := c.next(); ok {
			heap[0].word = word
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftItems(heap, cursors, 0)
	}
	return dst, nil
}
