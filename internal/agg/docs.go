package agg

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"
)

// Doc is one search result: a scored document, optionally carrying its text
// (needed by CPU-intensive aggregation functions such as Categorise).
type Doc struct {
	ID    uint64
	Score float64
	Text  string
}

// EncodeDocs serialises documents in canonical order (score descending,
// then ID ascending). The input is sorted in place.
func EncodeDocs(docs []Doc) []byte {
	size := binary.MaxVarintLen64
	for i := range docs {
		size += 2*binary.MaxVarintLen64 + 8 + len(docs[i].Text)
	}
	sortDocs(docs)
	return appendDocs(make([]byte, 0, size), docs)
}

// appendDocs appends the encoding of docs, which must already be in
// canonical order.
func appendDocs(dst []byte, docs []Doc) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(docs)))
	for i := range docs {
		dst = binary.AppendUvarint(dst, docs[i].ID)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(docs[i].Score))
		dst = binary.AppendUvarint(dst, uint64(len(docs[i].Text)))
		dst = append(dst, docs[i].Text...)
	}
	return dst
}

// DecodeDocs parses a payload produced by EncodeDocs.
func DecodeDocs(p []byte) ([]Doc, error) {
	return appendDecodedDocs([]Doc{}, p)
}

// decodeAllDocs decodes every part into one slice.
func decodeAllDocs(parts [][]byte) ([]Doc, error) {
	var docs []Doc
	for _, p := range parts {
		var err error
		if docs, err = appendDecodedDocs(docs, p); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// appendDecodedDocs parses an EncodeDocs payload and appends its
// documents to docs.
func appendDecodedDocs(docs []Doc, p []byte) ([]Doc, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, ErrBadPayload
	}
	docs = slices.Grow(docs, int(count))
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

func sortDocs(docs []Doc) {
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].Score != docs[j].Score {
			return docs[i].Score > docs[j].Score
		}
		return docs[i].ID < docs[j].ID
	})
}

// TopK keeps the K highest-scored documents, the canonical search-engine
// aggregation (§2.1: "each index server ... returns the top k responses
// best matching the query").
type TopK struct {
	K int
}

// Name implements Aggregator.
func (t TopK) Name() string { return "topk" }

// Combine implements Aggregator.
func (t TopK) Combine(a, b []byte) ([]byte, error) {
	return t.Merge(make([]byte, 0, len(a)+len(b)+binary.MaxVarintLen64), [][]byte{a, b})
}

// Merge implements Aggregator.
func (t TopK) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	docs, err := decodeAllDocs(parts)
	if err != nil {
		return dst, err
	}
	sortDocs(docs)
	if t.K > 0 && len(docs) > t.K {
		docs = docs[:t.K]
	}
	return appendDocs(dst, docs), nil
}

// Sample retains a deterministic pseudo-random fraction Ratio of the merged
// documents, the paper's computationally cheap Solr aggregation function
// (§4.2.1: "returns a randomly chosen subset of the documents to the user
// according to a specified output ratio α"). Selection by a hash of the
// document ID keeps the function associative, commutative and idempotent.
type Sample struct {
	Ratio float64
}

// Name implements Aggregator.
func (Sample) Name() string { return "sample" }

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

// Merge implements Aggregator.
func (s Sample) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	docs, err := decodeAllDocs(parts)
	if err != nil {
		return dst, err
	}
	kept := docs[:0]
	for _, d := range docs {
		if s.keep(d.ID) {
			kept = append(kept, d)
		}
	}
	sortDocs(kept)
	return appendDocs(dst, kept), nil
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

// Name implements Aggregator.
func (Categorise) Name() string { return "categorise" }

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
