package agg

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// KV is one key/value pair of a map/reduce-style partial result.
type KV struct {
	Key string
	Val int64
}

// ErrBadPayload reports an undecodable partial result.
var ErrBadPayload = errors.New("agg: malformed payload")

// EncodeKVs serialises pairs in canonical (key-sorted) order: a varint
// count followed by length-prefixed keys and zig-zag varint values. The
// input is sorted in place.
func EncodeKVs(kvs []KV) []byte {
	slices.SortFunc(kvs, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
	size := binary.MaxVarintLen64
	for i := range kvs {
		size += binary.MaxVarintLen64*2 + len(kvs[i].Key)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(kvs)))
	for i := range kvs {
		buf = binary.AppendUvarint(buf, uint64(len(kvs[i].Key)))
		buf = append(buf, kvs[i].Key...)
		buf = binary.AppendVarint(buf, kvs[i].Val)
	}
	return buf
}

// DecodeKVs parses a payload produced by EncodeKVs.
func DecodeKVs(p []byte) ([]KV, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, ErrBadPayload
	}
	kvs := make([]KV, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < klen {
			return nil, ErrBadPayload
		}
		p = p[n:]
		key := string(p[:klen])
		p = p[klen:]
		val, n := binary.Varint(p)
		if n <= 0 {
			return nil, ErrBadPayload
		}
		p = p[n:]
		kvs = append(kvs, KV{Key: key, Val: val})
	}
	if len(p) != 0 {
		return nil, ErrBadPayload
	}
	return kvs, nil
}

// KVOp is the per-key reduction of a KVCombiner.
type KVOp int

const (
	// OpSum adds values per key (WordCount, UserVisits revenue,
	// AdPredictor click counts, PageRank contributions).
	OpSum KVOp = iota
	// OpMax keeps the per-key maximum.
	OpMax
	// OpMin keeps the per-key minimum.
	OpMin
)

// Reduce folds two values of one key.
func (op KVOp) Reduce(a, b int64) int64 {
	switch op {
	case OpMax:
		return max(a, b)
	case OpMin:
		return min(a, b)
	default:
		return a + b
	}
}

// KVCombiner merges sorted key/value payloads with a per-key reduction, the
// agg box counterpart of a Hadoop combiner (§3.2.1: "a Hadoop aggregation
// wrapper exposes the standard interface of combiner functions").
type KVCombiner struct {
	Op KVOp
}

// Combine implements Aggregator.
func (c KVCombiner) Combine(a, b []byte) ([]byte, error) {
	return c.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// kvStackCursors is how many parts Merge reads from cursors on its own
// stack frame: a box's widest due batch, an eighth of its local trees'
// count budget (core.maxPending/8), which a mapred_kv job's 224–232
// chunks fit. A wider batch, such as the final one of a request of over
// 256 parts too small to fill a batch by their bytes, allocates its
// cursors.
const kvStackCursors = 256

// kvCursor reads one encoded KV payload pair by pair without decoding it:
// key is a sub-slice of the part, so advancing allocates nothing. It
// rejects exactly what DecodeKVs rejects, plus keys that go backwards.
//
// w0 and w1 are the current key's first sixteen bytes as two big-endian
// words, zero past the key's end: what the merge compares before it
// compares keys. Like Concat's prefixWord they are a cache of the order,
// not the order — words that differ order their keys as bytes.Compare
// does, and equal words settle a tie only between keys of one length of at
// most sixteen bytes; "ab" and "ab\x00" share their words.
type kvCursor struct {
	rest   []byte // unread bytes after the current pair
	key    []byte // current key
	val    int64  // current value
	left   uint64 // pairs after the current one
	w0, w1 uint64 // the current key's words
	same   bool   // the current key equals the one before it in the part
}

// open positions the cursor before the part's first pair.
func (k *kvCursor) open(part []byte) error {
	count, n := binary.Uvarint(part)
	if n <= 0 || count > uint64(len(part)-n)+1 {
		return ErrBadPayload
	}
	*k = kvCursor{rest: part[n:], left: count}
	return nil
}

// next steps to the following pair; ok is false once the part is
// exhausted (trailing bytes after the last pair are an error). A
// one-byte key length or value, the common case, is read inline.
func (k *kvCursor) next() (ok bool, err error) {
	p := k.rest
	if k.left == 0 {
		if len(p) != 0 {
			return false, ErrBadPayload
		}
		return false, nil
	}
	var klen uint64
	n := 1
	if len(p) > 0 && p[0] < 0x80 {
		klen = uint64(p[0])
	} else if klen, n = binary.Uvarint(p); n <= 0 {
		return false, ErrBadPayload
	}
	if uint64(len(p)-n) < klen {
		return false, ErrBadPayload
	}
	end := n + int(klen)
	key := p[n:end]
	var w0, w1 uint64
	if len(p)-n >= 16 {
		// Past the key lie its value and later records: two loads stay
		// inside the part, and the masks clear what is not the key's.
		w0 = binary.BigEndian.Uint64(p[n:])
		w1 = binary.BigEndian.Uint64(p[n+8:])
		if klen < 8 {
			w0 &= ^uint64(0) << (64 - 8*klen)
			w1 = 0
		} else if klen < 16 {
			w1 &= ^uint64(0) << (128 - 8*klen)
		}
	} else {
		w0 = prefixWord(key)
		if klen > 8 {
			w1 = prefixWord(key[8:])
		}
	}
	var val int64
	if end < len(p) && p[end] < 0x80 {
		val, n = int64(p[end]>>1)^-int64(p[end]&1), 1
	} else if val, n = binary.Varint(p[end:]); n <= 0 {
		return false, ErrBadPayload
	}
	d := k.order(w0, w1, len(key))
	if d == wordTie {
		d = tieCompare(k.key, key)
	}
	if d > 0 {
		return false, ErrBadPayload
	}
	k.rest, k.key, k.val, k.w0, k.w1, k.same = p[end+n:], key, val, w0, w1, d == 0
	k.left--
	return true, nil
}

// order orders k's current key against a key of n bytes whose words are
// w0 and w1, as far as the words can: -1, 0 or 1 as bytes.Compare would
// give, or wordTie where only the keys can tell. It calls nothing, so it
// inlines into next's order check and the scan's pass, the merge's most
// frequent compares, which settle a wordTie with tieCompare; cmp does both.
func (k *kvCursor) order(w0, w1 uint64, n int) int {
	switch {
	case k.w0 != w0:
		return wordOrder(k.w0, w0)
	case k.w1 != w1:
		return wordOrder(k.w1, w1)
	case len(k.key) == n && n <= 16:
		return 0
	}
	return wordTie
}

// wordTie is what order returns on a tie that only the keys can settle.
const wordTie = 2

// wordOrder is -1 or 1 as a is below or above b, which differ.
func wordOrder(a, b uint64) int {
	if a < b {
		return -1
	}
	return 1
}

// tieCompare settles a wordTie, kept out of line as Concat's tieLess is:
// keys that differ only in length or only past their sixteenth byte.
//
//go:noinline
func tieCompare(a, b []byte) int { return bytes.Compare(a, b) }

// cmp orders k's current key against key, whose words are w0 and w1, as
// bytes.Compare does.
func (k *kvCursor) cmp(w0, w1 uint64, key []byte) int {
	if d := k.order(w0, w1, len(key)); d != wordTie {
		return d
	}
	return tieCompare(k.key, key)
}

// less reports whether a's current key is below b's.
func (a *kvCursor) less(b *kvCursor) bool { return a.cmp(b.w0, b.w1, b.key) < 0 }

// siftDown restores the min-heap of cursor numbers (by the cursors'
// current keys) below heap[i] after that cursor's key grew.
func siftDown(curs []kvCursor, heap []int32, i int) {
	for {
		child := 2*i + 1
		if child >= len(heap) {
			return
		}
		if r := child + 1; r < len(heap) && curs[heap[r]].less(&curs[heap[child]]) {
			child = r
		}
		if !curs[heap[child]].less(&curs[heap[i]]) {
			return
		}
		heap[i], heap[child] = heap[child], heap[i]
		i = child
	}
}

// siftUp restores the min-heap of cursor numbers above heap[i] after that
// cursor joined it.
func siftUp(curs []kvCursor, heap []int32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !curs[heap[i]].less(&curs[heap[parent]]) {
			return
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

// byKey orders cursors by their current key.
func byKey(a, b kvCursor) int { return a.cmp(b.w0, b.w1, b.key) }

// moreKVCursors is Merge's beyond-the-stack-frame slow path, kept out of
// line: only a batch wider than kvStackCursors parts allocates its
// cursors and its heap.
//
//go:noinline
func moreKVCursors(n int) ([]kvCursor, []int32) {
	return make([]kvCursor, n), make([]int32, 0, n)
}

// uvarintLen is the encoded size of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// The scan's limits: Merge scans for the next key while at most
// kvScanCursors parts are open and, over each block of kvScanBlock
// records written, it took at least kvScanMinTaken records for each. A
// scan costs a compare a cursor for every key written, the heap two
// compares and a swap a level for every record taken, so the scan pays
// while keys repeat across the parts and the heap once they stop.
const (
	kvScanCursors  = 8
	kvScanBlock    = 64
	kvScanMinTaken = 2
)

// Merge implements Aggregator as one streaming k-way merge over the
// encoded bytes: a cursor per part, keys compared on their cached words
// and, on a tie the words cannot settle, as the sub-slices of the input
// they are, the output written once. Every part's count and first record
// are read before anything is written. The cursors are then sorted by
// first key, and a part stays closed until the merge reaches it: it opens
// once its first key is at or before the least open key, so equal keys
// at a boundary are reduced together. The chunks of a sorted source, which
// follow one another, are so read one after another, one of them open at
// a time, and the merge picks among the parts that overlap only. It picks
// the next key one of two ways. While at most kvScanCursors parts are
// open it scans (see scan), which costs a compare a cursor for each key
// written; where that stops paying, or a part more would open, it keeps
// the open cursors in a min-heap, which costs about 2·log₂k compares for
// each record taken. A part whose keys go backwards is rejected with
// ErrBadPayload (a merge-join over it would silently leave keys
// unreduced). Equal keys inside one part — a producer that does not
// combine before encoding leaves them — are reduced like equal keys
// across parts, so the output never holds a key twice; what a reducer
// computes from it is unchanged and the bytes it receives can only
// shrink.
func (c KVCombiner) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	var cursorStack [kvStackCursors]kvCursor
	var heapStack [kvStackCursors]int32
	curs, heap := cursorStack[:], heapStack[:0]
	if len(parts) > kvStackCursors {
		curs, heap = moreKVCursors(len(parts))
	}
	live := 0
	var bound uint64 // the output cannot hold more pairs than the inputs together
	for _, part := range parts {
		k := &curs[live]
		if err := k.open(part); err != nil {
			return dst, err
		}
		bound += k.left
		ok, err := k.next()
		if err != nil {
			return dst, err
		}
		if ok {
			live++
		}
	}
	curs = curs[:live]
	slices.SortFunc(curs, byKey)

	// The count goes in front of pairs not merged yet: reserve the widest
	// prefix it can need, and close the gap once at the end if the merge
	// reduced enough keys away for a narrower one.
	var pad [binary.MaxVarintLen64]byte
	start, reserved := len(dst), uvarintLen(bound)
	dst = append(dst, pad[:reserved]...)
	dst, open, next, count, err := c.scan(dst, curs)
	if err != nil {
		return dst, err
	}
	// The heap finishes what the scan left: the open cursors curs[:open]
	// and the closed ones curs[next:]. It holds the cursors' numbers, so a
	// sift moves four bytes, not an 88-byte cursor.
	for i := 0; i < open; i++ {
		heap = append(heap, int32(i))
	}
	for i := open/2 - 1; i >= 0; i-- {
		siftDown(curs, heap, i)
	}
	for len(heap) > 0 || next < len(curs) {
		// Push each closed part that starts at or before the top key.
		for next < len(curs) && (len(heap) == 0 || !curs[heap[0]].less(&curs[next])) {
			heap = append(heap, int32(next))
			next++
			siftUp(curs, heap, len(heap)-1)
		}
		top := &curs[heap[0]]
		key, w0, w1, val := top.key, top.w0, top.w1, top.val
		for {
			ok, err := top.next()
			if err != nil {
				return dst, err
			}
			if !ok {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
				if len(heap) == 0 {
					break
				}
			}
			siftDown(curs, heap, 0)
			top = &curs[heap[0]]
			if top.cmp(w0, w1, key) != 0 {
				break
			}
			val = c.Op.Reduce(val, top.val)
		}
		dst = appendKV(dst, key, val)
		count++
	}
	if n := uvarintLen(count); n < reserved {
		copy(dst[start+n:], dst[start+reserved:])
		dst = dst[:len(dst)-(reserved-n)]
	}
	binary.PutUvarint(dst[start:], count)
	return dst, nil
}

// scan is Merge's picker for a few open parts: one pass over the open
// cursors finds the least key and marks every cursor that holds it, and
// each marked cursor is reduced and advanced past the key, equal keys
// inside its part included. curs is sorted by first key and starts
// closed; the open cursors are curs[:open] and the closed ones curs[next:],
// and the pass opens each closed part whose first key is at or before the
// least key. The scan stops between two keys, so none is half reduced: when
// a part more would open past kvScanCursors, or when over a block of
// kvScanBlock records written it took fewer than kvScanMinTaken records
// for each. It returns open and next for the heap to finish, 0 and
// len(curs) once it merged everything; count is the number of records it
// wrote.
func (c KVCombiner) scan(dst []byte, curs []kvCursor) (_ []byte, open, next int, count uint64, err error) {
	taken := 0 // records taken in this block
	for open > 0 || next < len(curs) {
		if count > 0 && count%kvScanBlock == 0 {
			if taken < kvScanMinTaken*kvScanBlock {
				return dst, open, next, count, nil
			}
			taken = 0
		}
		if open == 0 {
			curs[0] = curs[next]
			open, next = 1, next+1
		}
		key, w0, w1, val, marked := curs[0].key, curs[0].w0, curs[0].w1, curs[0].val, uint(1)
		for i := 1; ; i++ {
			if i == open {
				if next == len(curs) || curs[next].cmp(w0, w1, key) > 0 {
					break
				}
				if open == kvScanCursors {
					return dst, open, next, count, nil
				}
				curs[open] = curs[next]
				open, next = open+1, next+1
			}
			d := curs[i].order(w0, w1, len(key))
			if d == wordTie {
				d = tieCompare(curs[i].key, key)
			}
			switch {
			case d < 0:
				key, w0, w1, val, marked = curs[i].key, curs[i].w0, curs[i].w1, curs[i].val, 1<<i
			case d == 0:
				val = c.Op.Reduce(val, curs[i].val)
				marked |= 1 << i
			}
		}
		// Highest first: a spent cursor's place goes to the last open
		// cursor, which this loop has advanced already or does not touch.
		for marked != 0 {
			i := bits.Len(marked) - 1
			marked &^= 1 << i
			k := &curs[i]
			for {
				taken++
				ok, err := k.next()
				if err != nil {
					return dst, 0, next, count, err
				}
				if !ok {
					open--
					curs[i] = curs[open]
					break
				}
				if !k.same {
					break
				}
				val = c.Op.Reduce(val, k.val)
			}
		}
		dst = appendKV(dst, key, val)
		count++
	}
	return dst, 0, next, count, nil
}

// appendKV writes one record as EncodeKVs does.
func appendKV(dst, key []byte, val int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.AppendVarint(dst, val)
}
