package agg

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
)

// Doc is one search result: a scored document, optionally carrying its text
// (needed by CPU-intensive aggregation functions such as Categorise).
type Doc struct {
	ID    uint64
	Score float64
	Text  string
}

// EncodeDocs serialises documents in canonical order (compareDocs): a
// varint count, then per document a varint ID, the score's eight bytes
// and the length-prefixed text. The input is sorted in place.
func EncodeDocs(docs []Doc) []byte {
	size := binary.MaxVarintLen64
	for i := range docs {
		size += 2*binary.MaxVarintLen64 + 8 + len(docs[i].Text)
	}
	sortDocs(docs)
	dst := binary.AppendUvarint(make([]byte, 0, size), uint64(len(docs)))
	for i := range docs {
		dst = appendDoc(dst, docs[i])
	}
	return dst
}

// appendDoc appends one document's record.
func appendDoc(dst []byte, d Doc) []byte {
	dst = binary.AppendUvarint(dst, d.ID)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Score))
	dst = binary.AppendUvarint(dst, uint64(len(d.Text)))
	return append(dst, d.Text...)
}

// DecodeDocs parses a payload produced by EncodeDocs.
func DecodeDocs(p []byte) ([]Doc, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, ErrBadPayload
	}
	docs := make([]Doc, 0, count)
	for i := uint64(0); i < count; i++ {
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, ErrBadPayload
		}
		p = p[n:]
		if len(p) < 8 {
			return nil, ErrBadPayload
		}
		score := math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		tlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < tlen {
			return nil, ErrBadPayload
		}
		p = p[n:]
		text := string(p[:tlen])
		p = p[tlen:]
		docs = append(docs, Doc{ID: id, Score: score, Text: text})
	}
	if len(p) != 0 {
		return nil, ErrBadPayload
	}
	return docs, nil
}

// docOrder is what places one record in the canonical order: its score,
// its ID and, for records equal on both, its encoded bytes.
type docOrder struct {
	score float64
	id    uint64
	rec   []byte
}

// compareDocs is the canonical order of search results, and a total one:
// score descending as cmp.Compare orders floats (NaN below every number,
// -0 equal to +0), then ID ascending, then the encoded records byte by
// byte. Records that compare equal are the same bytes, so the order of a
// merged list does not depend on how its parts were grouped.
func compareDocs(a, b docOrder) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	return bytes.Compare(a.rec, b.rec)
}

// sortDocs puts decoded documents in canonical order. Two documents with
// one score and one ID are rare enough to be encoded to be told apart.
func sortDocs(docs []Doc) {
	slices.SortFunc(docs, func(a, b Doc) int {
		ka, kb := docOrder{score: a.Score, id: a.ID}, docOrder{score: b.Score, id: b.ID}
		c := compareDocs(ka, kb)
		if c == 0 {
			ka.rec, kb.rec = appendDoc(nil, a), appendDoc(nil, b)
			c = compareDocs(ka, kb)
		}
		return c
	})
}

// docCursor reads one encoded docs payload record by record without
// decoding it: rec is a sub-slice of the part, so advancing allocates
// nothing. It rejects exactly what DecodeDocs rejects, plus what a
// merge-join cannot take: records that go backwards, and a varint longer
// than it need be (the record is copied out as it came in, so it must
// already be the bytes EncodeDocs would write).
type docCursor struct {
	docOrder        // current record
	rest     []byte // unread bytes after it
	left     uint64 // records after it
}

// open positions the cursor before the part's first record.
func (k *docCursor) open(part []byte) error {
	count, n := binary.Uvarint(part)
	if n <= 0 || count > uint64(len(part)-n)+1 {
		return ErrBadPayload
	}
	*k = docCursor{rest: part[n:], left: count}
	return nil
}

// next steps to the following record; ok is false once the part is
// exhausted (trailing bytes after the last record are an error).
func (k *docCursor) next() (ok bool, err error) {
	p := k.rest
	if k.left == 0 {
		if len(p) != 0 {
			return false, ErrBadPayload
		}
		return false, nil
	}
	// A varint of several bytes that ends in a zero byte is padded.
	id, n := binary.Uvarint(p)
	if n <= 0 || n > 1 && p[n-1] == 0 || len(p)-n < 8 {
		return false, ErrBadPayload
	}
	score := math.Float64frombits(binary.LittleEndian.Uint64(p[n:]))
	q := p[n+8:]
	tlen, m := binary.Uvarint(q)
	if m <= 0 || m > 1 && q[m-1] == 0 || uint64(len(q)-m) < tlen {
		return false, ErrBadPayload
	}
	end := n + 8 + m + int(tlen)
	rec := p[:end:end]
	// A lower score than the last record's is in order; only a tie, a
	// climb or a NaN needs the full comparison.
	if k.rec != nil && !(score < k.score) && compareDocs(k.docOrder, docOrder{score, id, rec}) > 0 {
		return false, ErrBadPayload
	}
	// Field by field: assigning the docOrder whole goes through a typed
	// copy that costs more than the rest of the step.
	k.score, k.id, k.rec, k.rest = score, id, rec, p[end:]
	k.left--
	return true, nil
}

// siftDocs restores the heap (best record first) below heap[i] after that
// cursor stepped to a later record.
func siftDocs(heap []docCursor, i int) {
	for {
		child := 2*i + 1
		if child >= len(heap) {
			return
		}
		if r := child + 1; r < len(heap) && compareDocs(heap[r].docOrder, heap[child].docOrder) < 0 {
			child = r
		}
		if compareDocs(heap[i].docOrder, heap[child].docOrder) <= 0 {
			return
		}
		heap[i], heap[child] = heap[child], heap[i]
		i = child
	}
}

// moreDocCursors is mergeDocs' beyond-the-stack-frame slow path (see
// moreKVCursors).
//
//go:noinline
func moreDocCursors(n int) []docCursor { return make([]docCursor, n) }

// mergeDocs is TopK's and Sample's Merge: one streaming k-way heap merge
// over the encoded bytes, the docs counterpart of KVCombiner.Merge. Each
// part is already in canonical order, so the best record not yet emitted
// is at the head of some part; it is copied to dst as the sub-slice it is.
// Records whose ID keep refuses are skipped (nil keeps all), and at most
// limit are emitted (0 = all). Past the limit nothing is ordered any
// more, but every part is still read to its end: a part is malformed
// wherever the fault sits, not only in the records that made the cut.
func mergeDocs(dst []byte, parts [][]byte, limit int, keep func(id uint64) bool) ([]byte, error) {
	var stack [kvStackCursors]docCursor
	heap := stack[:]
	if len(parts) > kvStackCursors {
		heap = moreDocCursors(len(parts))
	}
	live := 0
	var bound uint64 // the output cannot hold more records than the inputs together
	for _, part := range parts {
		k := &heap[live]
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
	heap = heap[:live]
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDocs(heap, i)
	}
	if limit > 0 {
		bound = min(bound, uint64(limit))
	}

	// The count goes in front of records not merged yet: reserve the
	// widest prefix it can need and close the gap at the end (see
	// KVCombiner.Merge).
	var pad [binary.MaxVarintLen64]byte
	start, reserved := len(dst), uvarintLen(bound)
	dst = append(dst, pad[:reserved]...)
	var count uint64
	for len(heap) > 0 && count < bound {
		top := &heap[0]
		if keep == nil || keep(top.id) {
			dst = append(dst, top.rec...)
			count++
		}
		ok, err := top.next()
		if err != nil {
			return dst, err
		}
		if !ok {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDocs(heap, 0)
	}
	for i := range heap {
		for {
			ok, err := heap[i].next()
			if err != nil {
				return dst, err
			}
			if !ok {
				break
			}
		}
	}
	if n := uvarintLen(count); n < reserved {
		copy(dst[start+n:], dst[start+reserved:])
		dst = dst[:len(dst)-(reserved-n)]
	}
	binary.PutUvarint(dst[start:], count)
	return dst, nil
}

// TopK keeps the K highest-scored documents, the canonical search-engine
// aggregation (§2.1: "each index server ... returns the top k responses
// best matching the query").
type TopK struct {
	K int
}

// Combine implements Aggregator.
func (t TopK) Combine(a, b []byte) ([]byte, error) {
	return t.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Merge implements Aggregator (see mergeDocs).
func (t TopK) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	return mergeDocs(dst, parts, max(t.K, 0), nil)
}

// Sample retains a deterministic pseudo-random fraction Ratio of the merged
// documents, the paper's computationally cheap Solr aggregation function
// (§4.2.1: "returns a randomly chosen subset of the documents to the user
// according to a specified output ratio α"). Selection by a hash of the
// document ID keeps the function associative, commutative and idempotent.
type Sample struct {
	Ratio float64
}

// keep reports whether a document survives the sample.
func (s Sample) keep(id uint64) bool {
	// SplitMix64 finaliser as a uniform hash of the ID.
	x := id + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1e6) < s.Ratio*1e6
}

// Combine implements Aggregator.
func (s Sample) Combine(a, b []byte) ([]byte, error) {
	return s.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Merge implements Aggregator (see mergeDocs).
func (s Sample) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	return mergeDocs(dst, parts, 0, s.keep)
}

// Category is one classification target of Categorise.
type Category struct {
	Name  string
	Terms []string
}

// Categorise is the paper's CPU-intensive Solr aggregation function
// (§4.2.1): it classifies documents into base categories by scanning their
// text for category terms and returns the top-K results per category.
// Payloads are a tagged union: raw documents (from workers) or an already
// classified summary (from upstream aggregation); Merge classifies every
// raw part and then merges summaries, so it stays associative and
// commutative.
type Categorise struct {
	K          int
	Categories []Category
}

const (
	tagRawDocs byte = 0
	tagSummary byte = 1
)

// TagDocs marks an EncodeDocs payload as raw input for Categorise.
func TagDocs(encoded []byte) []byte {
	return append([]byte{tagRawDocs}, encoded...)
}

// classify scores a document against every category by counting term
// occurrences; this repeated text scanning is the deliberate CPU cost.
func (c Categorise) classify(d Doc) (int, float64) {
	best, bestScore := -1, 0.0
	for ci, cat := range c.Categories {
		score := 0.0
		for _, term := range cat.Terms {
			score += float64(strings.Count(d.Text, term))
		}
		if score > bestScore {
			best, bestScore = ci, score
		}
	}
	return best, bestScore
}

// summary is the classified form: per category, the top-K (ID, score) docs.
type summary struct {
	perCat [][]Doc // Text stripped; Score is the classification score
}

func (c Categorise) toSummary(p []byte) (*summary, error) {
	if len(p) == 0 {
		return nil, ErrBadPayload
	}
	switch p[0] {
	case tagSummary:
		return c.decodeSummary(p[1:])
	case tagRawDocs:
		docs, err := DecodeDocs(p[1:])
		if err != nil {
			return nil, err
		}
		s := &summary{perCat: make([][]Doc, len(c.Categories))}
		for _, d := range docs {
			cat, score := c.classify(d)
			if cat < 0 {
				continue
			}
			s.perCat[cat] = append(s.perCat[cat], Doc{ID: d.ID, Score: score})
		}
		s.trim(c.K)
		return s, nil
	default:
		return nil, ErrBadPayload
	}
}

func (s *summary) trim(k int) {
	for ci := range s.perCat {
		sortDocs(s.perCat[ci])
		if k > 0 && len(s.perCat[ci]) > k {
			s.perCat[ci] = s.perCat[ci][:k]
		}
	}
}

func appendSummary(buf []byte, s *summary) []byte {
	buf = append(buf, tagSummary)
	buf = binary.AppendUvarint(buf, uint64(len(s.perCat)))
	for _, docs := range s.perCat {
		buf = binary.AppendUvarint(buf, uint64(len(docs)))
		for _, d := range docs {
			buf = binary.AppendUvarint(buf, d.ID)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Score))
		}
	}
	return buf
}

func (c Categorise) decodeSummary(p []byte) (*summary, error) {
	ncats, n := binary.Uvarint(p)
	if n <= 0 || ncats != uint64(len(c.Categories)) {
		return nil, ErrBadPayload
	}
	p = p[n:]
	s := &summary{perCat: make([][]Doc, ncats)}
	for ci := uint64(0); ci < ncats; ci++ {
		ndocs, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, ErrBadPayload
		}
		p = p[n:]
		for i := uint64(0); i < ndocs; i++ {
			id, n := binary.Uvarint(p)
			if n <= 0 || len(p[n:]) < 8 {
				return nil, ErrBadPayload
			}
			p = p[n:]
			score := math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
			s.perCat[ci] = append(s.perCat[ci], Doc{ID: id, Score: score})
		}
	}
	if len(p) != 0 {
		return nil, ErrBadPayload
	}
	return s, nil
}

// Combine implements Aggregator.
func (c Categorise) Combine(a, b []byte) ([]byte, error) {
	return c.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Merge implements Aggregator. The per-category lists are trimmed to K
// once, after every part is in: the K best of a union are the K best of
// its parts' K best, so trimming in between would change nothing.
func (c Categorise) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	merged := &summary{perCat: make([][]Doc, len(c.Categories))}
	for _, p := range parts {
		s, err := c.toSummary(p)
		if err != nil {
			return dst, err
		}
		for ci := range merged.perCat {
			merged.perCat[ci] = append(merged.perCat[ci], s.perCat[ci]...)
		}
	}
	merged.trim(c.K)
	return appendSummary(dst, merged), nil
}

// TopPerCategory decodes a Categorise result into per-category documents,
// for application-level consumption of the final result.
func (c Categorise) TopPerCategory(p []byte) (map[string][]Doc, error) {
	s, err := c.toSummary(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Doc, len(c.Categories))
	for ci, docs := range s.perCat {
		out[c.Categories[ci].Name] = docs
	}
	return out, nil
}
