package agg

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// Concat appends payloads without any reduction: the aggregator of
// non-reducible data such as TeraSort rows (identity reduce, Fig 22's TS
// bar shows no benefit). Payload format: varint count + length-prefixed
// items, in byte order once merged.
type Concat struct{}

// Combine implements Aggregator.
func (c Concat) Combine(a, b []byte) ([]byte, error) {
	return c.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// EncodeItems serialises opaque items: varint count + length-prefixed blobs,
// in the order given.
func EncodeItems(items [][]byte) []byte {
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
	items, err := appendItemViews([][]byte{}, p)
	if err != nil {
		return nil, err
	}
	for i, it := range items {
		items[i] = bytes.Clone(it)
	}
	return items, nil
}

// appendItemViews parses an EncodeItems payload and appends its items to
// items as sub-slices of p.
func appendItemViews(items [][]byte, p []byte) ([][]byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, ErrBadPayload
	}
	items = slices.Grow(items, int(count))
	for i := uint64(0); i < count; i++ {
		ilen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < ilen {
			return nil, ErrBadPayload
		}
		end := n + int(ilen)
		items = append(items, p[n:end:end])
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

// itemRef is one entry of a merge's index of out-of-order items, sixteen
// bytes an item: the item's record — its length varint, then its bytes —
// starts at parts[part][off].
type itemRef struct {
	word      uint64
	part, off uint32
}

// itemAt is the item whose record starts at part[off], a record scan has
// validated.
func itemAt(part []byte, off uint32) []byte {
	ilen, n := binary.Uvarint(part[off:])
	start := int(off) + n
	return part[start : start+int(ilen)]
}

// itemCursor reads one encoded items payload item by item, in byte order,
// without decoding it. A part whose items are already in order — every run
// a box hands on, every result a master folds — is read in place: rest
// shrinks past each item and nothing is kept beside the bytes. The parts
// that are not (a worker's raw parts: EncodeItems promises no order, so
// unlike the KV and docs merges this one cannot refuse them) are read
// together through one index of all their items, sorted once, which the
// first of them walks and the others leave empty. Either way item is a
// sub-slice of a part.
type itemCursor struct {
	item  []byte    // current item
	rest  []byte    // in place: the encoded items after it
	index []itemRef // the index: the entries after the current one
	left  uint64    // items after the current one
	// indexed is set by scan on a part out of order; indexItems then
	// builds the index.
	indexed bool
}

// scan validates the whole part — it rejects exactly what DecodeItems
// rejects — and positions the cursor before its first item. After it next
// cannot fail. A part an index's 32-bit offsets could not address is no
// payload either (wire.MaxPayload is 16 MiB).
func (c *itemCursor) scan(part []byte) error {
	count, n := binary.Uvarint(part)
	if n <= 0 || count > uint64(len(part)-n)+1 || uint64(len(part)) > math.MaxUint32 {
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
		if c.indexed {
			continue
		}
		word := prefixWord(item)
		c.indexed = word < lastWord || word == lastWord && bytes.Compare(item, last) < 0
		last, lastWord = item, word
	}
	if len(p) != 0 {
		return ErrBadPayload
	}
	return nil
}

// next steps to the following item in byte order and returns its prefix
// word; ok is false once the part is exhausted. parts are the merge's,
// which the index points into.
//
//netagg:hotpath
func (c *itemCursor) next(parts [][]byte) (word uint64, ok bool) {
	if c.left == 0 {
		return 0, false
	}
	c.left--
	if c.indexed {
		ref := c.index[0]
		c.index = c.index[1:]
		c.item = itemAt(parts[ref.part], ref.off)
		return ref.word, true
	}
	ilen, n := binary.Uvarint(c.rest)
	end := n + int(ilen)
	c.item, c.rest = c.rest[n:end], c.rest[end:]
	return prefixWord(c.item), true
}

// indexItems puts every item of every out-of-order cursor into one index of
// total entries, sorts it, and hands it to the first such cursor; the
// others are left empty. It is Merge's slow path, kept out of the hot
// function like moreItemCursors: the one allocation is here, the sort in
// sortItemRefs.
//
//go:noinline
func indexItems(cursors []itemCursor, parts [][]byte, total uint64) {
	refs := make([]itemRef, 0, total)
	var head *itemCursor
	for i := range cursors {
		c := &cursors[i]
		if !c.indexed {
			continue
		}
		part := parts[i]
		off := len(part) - len(c.rest)
		for range c.left {
			ilen, n := binary.Uvarint(part[off:])
			end := off + n + int(ilen)
			refs = append(refs, itemRef{word: prefixWord(part[off+n : end]), part: uint32(i), off: uint32(off)})
			off = end
		}
		if head == nil {
			head = c
		} else {
			c.left = 0
		}
	}
	sortItemRefs(refs, parts)
	head.index, head.left = refs, total
}

// smallBucket is the largest bucket sortItemRefs sorts by insertion; a
// larger one goes to slices.SortFunc.
const smallBucket = 24

// sortItemRefs sorts an index in the merge's two-step order. One in-place
// pass partitions it on the word's top byte (American flag sort: count the
// buckets, place their starts, cycle each entry into its bucket), so that
// no scratch array is needed and an entry stays the only cost of an item;
// then each bucket is sorted on its own. Random rows leave buckets of a
// few entries each; if every entry shares its top byte the partition was
// one linear pass before an ordinary sort.
//
//netagg:hotpath
func sortItemRefs(refs []itemRef, parts [][]byte) {
	var next, end [256]int
	for _, r := range refs {
		end[r.word>>56]++
	}
	sum := 0
	for b, n := range end {
		next[b] = sum
		sum += n
		end[b] = sum
	}
	for b := range next {
		for next[b] < end[b] {
			r := refs[next[b]]
			for d := r.word >> 56; d != uint64(b); d = r.word >> 56 {
				r, refs[next[d]] = refs[next[d]], r
				next[d]++
			}
			refs[next[b]] = r
			next[b]++
		}
	}
	start := 0
	for _, e := range end {
		bucket := refs[start:e]
		start = e
		if len(bucket) <= smallBucket {
			for i := 1; i < len(bucket); i++ {
				r, j := bucket[i], i
				for ; j > 0 && lessRef(parts, r, bucket[j-1]); j-- {
					bucket[j] = bucket[j-1]
				}
				bucket[j] = r
			}
			continue
		}
		slices.SortFunc(bucket, func(a, b itemRef) int {
			if a.word != b.word {
				return cmp.Compare(a.word, b.word)
			}
			return compareRefItems(parts, a, b)
		})
	}
}

// lessRef orders two index entries: on the word, and on a tie — inside one
// part or across two — on the items.
func lessRef(parts [][]byte, a, b itemRef) bool {
	return a.word < b.word || a.word == b.word && compareRefItems(parts, a, b) < 0
}

// compareRefItems compares the items of two entries, the second step of
// both of sortItemRefs' orders, out of line as tieLess is.
//
//go:noinline
func compareRefItems(parts [][]byte, a, b itemRef) int {
	return bytes.Compare(itemAt(parts[a.part], a.off), itemAt(parts[b.part], b.off))
}

// itemHead is one heap entry of the merge: a cursor's current word beside
// the cursor's number, so that sifting moves sixteen bytes and touches a
// cursor only on a tie.
type itemHead struct {
	word uint64
	cur  int
}

// lessItem orders two heap entries: on the word, and on a tie on the items.
//
//netagg:hotpath
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
//
//netagg:hotpath
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
// cannot fail; parts already in byte order are read in place and only the
// others are indexed, together, and sorted — a first-level batch of raw
// parts is one cursor, a heap of one. Equal items are all kept, side by
// side. The byte order is what keeps the fold commutative.
//
//netagg:hotpath
func (Concat) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	var cursorStack [kvStackCursors]itemCursor
	var heapStack [kvStackCursors]itemHead
	cursors, heap := cursorStack[:], heapStack[:]
	if len(parts) > kvStackCursors {
		cursors, heap = moreItemCursors(len(parts))
	}
	cursors = cursors[:len(parts)]
	var count, unsorted uint64
	for i, part := range parts {
		c := &cursors[i]
		if err := c.scan(part); err != nil {
			return dst, err
		}
		count += c.left
		if c.indexed {
			unsorted += c.left
		}
	}
	if unsorted > 0 {
		indexItems(cursors, parts, unsorted)
	}
	live := 0
	for i := range cursors {
		if word, ok := cursors[i].next(parts); ok {
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
		if word, ok := c.next(parts); ok {
			heap[0].word = word
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftItems(heap, cursors, 0)
	}
	return dst, nil
}
