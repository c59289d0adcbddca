package agg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"netagg/internal/stats"
)

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("wc", KVCombiner{Op: OpSum})
	if _, ok := r.Lookup("wc"); !ok {
		t.Fatal("registered app not found")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("unknown app found")
	}
	if got := r.Apps(); len(got) != 1 || got[0] != "wc" {
		t.Fatalf("Apps = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Register("wc", KVCombiner{})
}

func TestKVRoundTrip(t *testing.T) {
	in := []KV{{"b", 2}, {"a", -1}, {"c", 1 << 40}}
	enc := EncodeKVs(in)
	out, err := DecodeKVs(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{"a", -1}, {"b", 2}, {"c", 1 << 40}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestKVDecodeRejectsGarbage(t *testing.T) {
	for _, p := range [][]byte{nil, {0xff}, {5, 1, 'a'}, append(EncodeKVs([]KV{{"a", 1}}), 0)} {
		if _, err := DecodeKVs(p); err == nil {
			t.Fatalf("expected error for %v", p)
		}
	}
}

func TestKVCombinerSum(t *testing.T) {
	a := EncodeKVs([]KV{{"x", 1}, {"y", 2}})
	b := EncodeKVs([]KV{{"y", 3}, {"z", 4}})
	out, err := KVCombiner{Op: OpSum}.Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := DecodeKVs(out)
	want := []KV{{"x", 1}, {"y", 5}, {"z", 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestKVCombinerMaxMin(t *testing.T) {
	a := EncodeKVs([]KV{{"k", 5}})
	b := EncodeKVs([]KV{{"k", 9}})
	for _, c := range []struct {
		op   KVOp
		want int64
	}{{OpMax, 9}, {OpMin, 5}} {
		out, err := KVCombiner{Op: c.op}.Combine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := DecodeKVs(out)
		if got[0].Val != c.want {
			t.Fatalf("%v: got %d, want %d", c.op, got[0].Val, c.want)
		}
	}
}

func TestItemsRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("row2"), []byte(""), []byte("row1")}
	out, err := DecodeItems(EncodeItems(in))
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: byte order.
	if len(out) != 3 || len(out[0]) != 0 || string(out[1]) != "row1" || string(out[2]) != "row2" {
		t.Fatalf("round trip mismatch: %q", out)
	}
}

func TestConcatPreservesEverything(t *testing.T) {
	a := EncodeItems([][]byte{[]byte("b"), []byte("a")})
	b := EncodeItems([][]byte{[]byte("c")})
	out, err := Concat{}.Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	items, _ := DecodeItems(out)
	if len(items) != 3 {
		t.Fatalf("concat lost items: %q", items)
	}
}

func TestDocsRoundTrip(t *testing.T) {
	in := []Doc{{ID: 2, Score: 0.5, Text: "hello"}, {ID: 1, Score: 0.9, Text: ""}}
	out, err := DecodeDocs(EncodeDocs(in))
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: score descending.
	if out[0].ID != 1 || out[1].ID != 2 || out[1].Text != "hello" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestTopKKeepsBest(t *testing.T) {
	a := EncodeDocs([]Doc{{ID: 1, Score: 0.9}, {ID: 2, Score: 0.1}})
	b := EncodeDocs([]Doc{{ID: 3, Score: 0.5}, {ID: 4, Score: 0.8}})
	out, err := TopK{K: 2}.Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := DecodeDocs(out)
	if len(docs) != 2 || docs[0].ID != 1 || docs[1].ID != 4 {
		t.Fatalf("topk mismatch: %+v", docs)
	}
}

func TestSampleReducesAndIsIdempotent(t *testing.T) {
	var docs []Doc
	for i := 0; i < 2000; i++ {
		docs = append(docs, Doc{ID: uint64(i), Score: float64(i)})
	}
	s := Sample{Ratio: 0.05}
	out, err := s.Combine(EncodeDocs(docs[:1000]), EncodeDocs(docs[1000:]))
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := DecodeDocs(out)
	if frac := float64(len(kept)) / 2000; frac < 0.02 || frac > 0.10 {
		t.Fatalf("sample kept %.3f, want ≈0.05", frac)
	}
	// Sampling an already sampled payload must not reduce further.
	again, err := s.Combine(out, EncodeDocs(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, out) {
		t.Fatal("sample is not idempotent")
	}
}

func testCategorise() Categorise {
	return Categorise{
		K: 3,
		Categories: []Category{
			{Name: "science", Terms: []string{"atom", "energy", "quantum"}},
			{Name: "sport", Terms: []string{"goal", "match", "team"}},
		},
	}
}

func TestCategoriseClassifiesAndKeepsTopK(t *testing.T) {
	c := testCategorise()
	var docs []Doc
	for i := 0; i < 10; i++ {
		docs = append(docs, Doc{ID: uint64(i), Text: "atom atom energy"})
	}
	docs = append(docs, Doc{ID: 100, Text: "goal match team goal"})
	docs = append(docs, Doc{ID: 101, Text: "nothing relevant"})
	out, err := c.Combine(TagDocs(EncodeDocs(docs[:6])), TagDocs(EncodeDocs(docs[6:])))
	if err != nil {
		t.Fatal(err)
	}
	per, err := c.TopPerCategory(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(per["science"]) != 3 {
		t.Fatalf("science docs = %d, want K=3", len(per["science"]))
	}
	if len(per["sport"]) != 1 || per["sport"][0].ID != 100 {
		t.Fatalf("sport docs = %+v", per["sport"])
	}
}

func TestCategoriseRejectsGarbage(t *testing.T) {
	c := testCategorise()
	if _, err := c.Combine([]byte{9, 9, 9}, TagDocs(EncodeDocs(nil))); err == nil {
		t.Fatal("expected error on bad tag")
	}
	if _, err := c.Combine(nil, TagDocs(EncodeDocs(nil))); err == nil {
		t.Fatal("expected error on empty payload")
	}
}

// randomKVPayload builds a random KV payload with keys from a small
// alphabet so merges collide.
func randomKVPayload(rn *stats.Rand) []byte {
	n := rn.Intn(8)
	kvs := make([]KV, 0, n)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", rn.Intn(6))
		if seen[k] {
			continue
		}
		seen[k] = true
		kvs = append(kvs, KV{Key: k, Val: int64(rn.Intn(100)) - 50})
	}
	return EncodeKVs(kvs)
}

func randomDocsPayload(rn *stats.Rand, tagged bool) []byte {
	n := rn.Intn(6)
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		docs = append(docs, Doc{
			ID:    rn.Uint64() % 1000,
			Score: rn.Float64(),
			Text:  []string{"atom energy", "goal team", "plain text"}[rn.Intn(3)],
		})
	}
	enc := EncodeDocs(docs)
	if tagged {
		return TagDocs(enc)
	}
	return enc
}

// tiedDocsPayload draws from a handful of IDs, scores and texts, so that
// records tie on score, on score and ID, and on everything — and the
// scores include the ones a careless comparison mishandles: both zeros
// and NaN.
func tiedDocsPayload(rn *stats.Rand) []byte {
	scores := []float64{1, 0.5, 0, math.Copysign(0, -1), math.NaN()}
	docs := make([]Doc, rn.Intn(6))
	for i := range docs {
		docs[i] = Doc{
			ID:    uint64(rn.Intn(3)),
			Score: scores[rn.Intn(len(scores))],
			Text:  []string{"", "atom", "goal team"}[rn.Intn(3)],
		}
	}
	return EncodeDocs(docs)
}

// foldPairwise and foldLeft are the two by-hand folds of parts with
// Combine: in pairwise rounds, and one part at a time into a running
// aggregate.
func foldPairwise(a Aggregator, parts [][]byte) ([]byte, error) {
	cur := append([][]byte(nil), parts...)
	for len(cur) > 1 {
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			out, err := a.Combine(cur[i], cur[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, out)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0], nil
}

func foldLeft(a Aggregator, parts [][]byte) ([]byte, error) {
	acc := parts[0]
	for _, p := range parts[1:] {
		var err error
		if acc, err = a.Combine(acc, p); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Property: every built-in aggregator is associative and commutative
// (§2.1), the correctness requirement for on-path aggregation — and its
// k-way Merge is byte-equal to any by-hand fold of the same parts, appends
// to dst, leaves the parts alone, and returns an already canonical single
// part unchanged.
func TestAggregatorsAssociativeCommutative(t *testing.T) {
	docs := func(rn *stats.Rand) []byte { return randomDocsPayload(rn, false) }
	cases := []struct {
		name string
		agg  Aggregator
		gen  func(*stats.Rand) []byte
	}{
		{"kv-sum", KVCombiner{Op: OpSum}, randomKVPayload},
		{"kv-max", KVCombiner{Op: OpMax}, randomKVPayload},
		{"kv-min", KVCombiner{Op: OpMin}, randomKVPayload},
		{"concat", Concat{}, func(rn *stats.Rand) []byte {
			n := rn.Intn(5)
			items := make([][]byte, n)
			for i := range items {
				items[i] = []byte(fmt.Sprintf("item%d", rn.Intn(10)))
			}
			return EncodeItems(items)
		}},
		// Items the prefix word cannot tell apart.
		{"concat-padded", Concat{}, func(rn *stats.Rand) []byte { return trapItemsPayload(rn, 5) }},
		{"topk", TopK{K: 4}, docs},
		{"sample", Sample{Ratio: 0.5}, docs},
		// K below, around and above the size of the union, over records
		// that tie: the order must not depend on the grouping.
		{"topk-1-tied", TopK{K: 1}, tiedDocsPayload},
		{"topk-7-tied", TopK{K: 7}, tiedDocsPayload},
		{"topk-all-tied", TopK{}, tiedDocsPayload},
		{"sample-tied", Sample{Ratio: 0.7}, tiedDocsPayload},
		{"categorise", testCategorise(), func(rn *stats.Rand) []byte {
			raw := randomDocsPayload(rn, true)
			if rn.Intn(2) == 0 {
				return raw
			}
			// A summary, as an upstream box forwards it.
			summary, err := testCategorise().Combine(raw, randomDocsPayload(rn, true))
			if err != nil {
				panic(err)
			}
			return summary
		}},
		{"virtual-cost", VirtualCost{Inner: KVCombiner{Op: OpSum}, PerKB: time.Nanosecond}, randomKVPayload},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			check := func(seed int64) bool {
				rn := stats.NewRand(seed)
				a, b, d := c.gen(rn), c.gen(rn), c.gen(rn)
				ab, err1 := c.agg.Combine(a, b)
				ba, err2 := c.agg.Combine(b, a)
				if err1 != nil || err2 != nil {
					return false
				}
				if !bytes.Equal(ab, ba) {
					return false // not commutative
				}
				abd, err1 := c.agg.Combine(ab, d)
				bd, err2 := c.agg.Combine(b, d)
				if err1 != nil || err2 != nil {
					return false
				}
				abd2, err3 := c.agg.Combine(a, bd)
				if err3 != nil || !bytes.Equal(abd, abd2) {
					return false // not associative
				}

				// ab is canonical: merged alone it comes back as it is.
				if alone, err := c.agg.Merge(nil, [][]byte{ab}); err != nil || !bytes.Equal(alone, ab) {
					return false
				}
				parts := make([][]byte, 2+rn.Intn(39))
				for i := range parts {
					parts[i] = c.gen(rn)
				}
				before := make([][]byte, len(parts))
				for i, p := range parts {
					before[i] = bytes.Clone(p)
				}
				merged, err := c.agg.Merge([]byte("dst"), parts)
				if err != nil || !bytes.HasPrefix(merged, []byte("dst")) {
					return false
				}
				merged = merged[len("dst"):]
				for i := range parts {
					if !bytes.Equal(parts[i], before[i]) {
						return false // Merge modified an input
					}
				}
				pairwise, err1 := foldPairwise(c.agg, parts)
				left, err2 := foldLeft(c.agg, parts)
				return err1 == nil && err2 == nil && bytes.Equal(merged, pairwise) && bytes.Equal(merged, left)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Every encoder writes the order its merge takes: a part fresh from
// EncodeKVs (distinct keys), EncodeDocs or EncodeItems, from inputs in the
// order drawn, is accepted by its merge and, merged alone, comes back byte
// for byte — the "single part comes back in canonical form" of Aggregator.
func TestEncodersWriteWhatMergeAccepts(t *testing.T) {
	docs := func(rn *stats.Rand) []byte { return randomDocsPayload(rn, false) }
	items := func(rn *stats.Rand) []byte {
		return EncodeItems(randomItems(rn, rn.Intn(20), 12, false, 2))
	}
	cases := []struct {
		name string
		gen  func(*stats.Rand) []byte
		aggs []Aggregator
	}{
		{"kvs", randomKVPayload, []Aggregator{KVCombiner{Op: OpSum}}},
		{"docs", docs, []Aggregator{TopK{}, Sample{Ratio: 1}}},
		{"tied-docs", tiedDocsPayload, []Aggregator{TopK{}, Sample{Ratio: 1}}},
		{"items", items, []Aggregator{Concat{}}},
		{"trap-items", func(rn *stats.Rand) []byte { return trapItemsPayload(rn, 12) }, []Aggregator{Concat{}}},
	}
	rn := stats.NewRand(29)
	for _, c := range cases {
		for trial := 0; trial < 200; trial++ {
			part := c.gen(rn)
			for _, a := range c.aggs {
				got, err := a.Merge(nil, [][]byte{part})
				if err != nil || !bytes.Equal(got, part) {
					t.Fatalf("%s: %T.Merge of one encoded part: %v, %x, want it back: %x", c.name, a, err, got, part)
				}
			}
		}
	}
}

// referenceDocs is the decode-sort-encode fold TopK.Merge and Sample.Merge
// were before they streamed, kept as the oracle: every part decoded into
// one slice, filtered, sorted, cut at k (0 = all), encoded.
func referenceDocs(parts [][]byte, k int, keep func(id uint64) bool) ([]byte, error) {
	var docs []Doc
	for _, p := range parts {
		part, err := DecodeDocs(p)
		if err != nil {
			return nil, err
		}
		for _, d := range part {
			if keep == nil || keep(d.ID) {
				docs = append(docs, d)
			}
		}
	}
	sortDocs(docs)
	if k > 0 && len(docs) > k {
		docs = docs[:k]
	}
	return EncodeDocs(docs), nil
}

// The streaming merge against the reference, with K one below, equal to
// and one above the number of records in the union, and at the extremes.
func TestDocsMergeMatchesReference(t *testing.T) {
	rn := stats.NewRand(11)
	for trial := 0; trial < 300; trial++ {
		gen := tiedDocsPayload
		if trial%2 == 0 {
			gen = func(rn *stats.Rand) []byte { return randomDocsPayload(rn, false) }
		}
		parts := make([][]byte, 1+rn.Intn(300)) // past kvStackCursors, and a box tree's widest batch, now and then
		union := 0
		for i := range parts {
			parts[i] = gen(rn)
			docs, _ := DecodeDocs(parts[i])
			union += len(docs)
		}
		for _, k := range []int{0, 1, union - 1, union, union + 1} {
			if k < 0 {
				continue
			}
			got, err := TopK{K: k}.Merge(nil, parts)
			want, _ := referenceDocs(parts, k, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("TopK{%d} over %d parts, %d records: %v, differs from the reference: %v", k, len(parts), union, err, !bytes.Equal(got, want))
			}
		}
		s := Sample{Ratio: 0.5}
		got, err := s.Merge(nil, parts)
		want, _ := referenceDocs(parts, 0, s.keep)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Sample over %d parts: %v, differs from the reference: %v", len(parts), err, !bytes.Equal(got, want))
		}
	}
}

// The docs merge reads its inputs without decoding them, so it carries
// DecodeDocs' checks itself — and two more a merge-join needs: records
// that go backwards, and a varint written longer than it need be.
// Whatever DecodeDocs rejects Merge rejects, wherever the bad part sits
// among good ones and whether or not the fault sits in a record that
// makes the cut, with ErrBadPayload and without panicking.
func TestDocsMergeRejectsMalformedParts(t *testing.T) {
	valid := EncodeDocs([]Doc{{ID: 7, Score: 0.9, Text: "atom"}, {ID: 300, Score: 0.8}, {ID: 2, Score: 0.5, Text: "goal team"}, {ID: 9, Score: 0.1, Text: "x"}})
	other := EncodeDocs([]Doc{{ID: 5, Score: 0.7, Text: "energy"}, {ID: 6, Score: 0.2}})
	setCount := func(p []byte, count uint64) []byte {
		_, n := binary.Uvarint(p)
		return append(binary.AppendUvarint(nil, count), p[n:]...)
	}
	record := func(id []byte, score float64, tlen []byte, text string) []byte {
		rec := binary.LittleEndian.AppendUint64(bytes.Clone(id), math.Float64bits(score))
		return append(append(rec, tlen...), text...)
	}
	// What DecodeDocs takes and a merge-join cannot.
	accepted := map[string]bool{
		"scores go backwards": true, "ids go backwards": true, "texts go backwards": true,
		"number after the NaN": true, "fault after the cut": true,
		"padded id": true, "padded text length": true,
	}
	bad := map[string][]byte{
		"empty":                nil,
		"trailing byte":        append(bytes.Clone(valid), 0),
		"count too low":        setCount(valid, 3),
		"count too high":       setCount(valid, 5),
		"count absurd":         setCount(valid, 1<<50),
		"count overflows":      append(bytes.Repeat([]byte{0xff}, 10), valid[1:]...),
		"truncated id":         append([]byte{1}, 0x80),
		"short score":          append([]byte{1, 7}, 1, 2, 3, 4, 5, 6, 7),
		"text past the end":    append([]byte{1}, record([]byte{7}, 0.5, []byte{9}, "short")...),
		"text length absurd":   append([]byte{1}, record([]byte{7}, 0.5, bytes.Repeat([]byte{0xff}, 9), "")...),
		"scores go backwards":  setCount(append(bytes.Clone(valid), other[1:]...), 6), // …, 0.1, 0.7, 0.2
		"fault after the cut":  setCount(append(bytes.Clone(valid), valid[1:]...), 8), // in order for four records, then 0.1, 0.9
		"padded id":            append([]byte{1}, record([]byte{0x87, 0}, 0.5, []byte{0}, "")...),
		"padded text length":   append([]byte{1}, record([]byte{7}, 0.5, []byte{0x81, 0}, "x")...),
		"ids go backwards":     append([]byte{2}, append(record([]byte{9}, 0.5, []byte{0}, ""), record([]byte{8}, 0.5, []byte{0}, "")...)...),
		"texts go backwards":   append([]byte{2}, append(record([]byte{9}, 0.5, []byte{1}, "b"), record([]byte{9}, 0.5, []byte{1}, "a")...)...),
		"number after the NaN": append([]byte{2}, append(record([]byte{9}, math.NaN(), []byte{0}, ""), record([]byte{9}, 0.5, []byte{0}, "")...)...),
	}
	for i := 1; i < len(valid); i++ {
		bad[fmt.Sprintf("truncated at %d", i)] = valid[:i]
	}
	for name, p := range bad {
		if _, err := DecodeDocs(p); (err == nil) != accepted[name] {
			t.Fatalf("%s: DecodeDocs returned %v; the case does not test what it says", name, err)
		}
		for _, a := range []Aggregator{TopK{K: 2}, TopK{}, Sample{Ratio: 1}, Sample{Ratio: 0.3}} {
			for _, parts := range [][][]byte{{p}, {p, valid, other}, {valid, p, other}, {valid, other, p}} {
				if _, err := a.Merge(nil, parts); !errors.Is(err, ErrBadPayload) {
					t.Fatalf("%s: %T.Merge returned %v, want ErrBadPayload", name, a, err)
				}
			}
		}
	}
	// The table's building blocks are sound: in order, they merge.
	if _, err := (TopK{K: 2}).Merge(nil, [][]byte{valid, other, append([]byte{1}, record([]byte{7}, 0.5, []byte{1}, "x")...)}); err != nil {
		t.Fatal(err)
	}
}

// referenceConcat is the collect-and-sort fold Concat.Merge was before it
// streamed, kept as the oracle: every part decoded and checked to be in
// byte order, then every item of every part sorted together and encoded.
func referenceConcat(parts [][]byte) ([]byte, error) {
	var items [][]byte
	for _, p := range parts {
		part, err := DecodeItems(p)
		if err != nil {
			return nil, err
		}
		if !slices.IsSortedFunc(part, bytes.Compare) {
			return nil, ErrBadPayload
		}
		items = append(items, part...)
	}
	return EncodeItems(items), nil
}

// trapItems are the items a prefix word misorders if it is taken for the
// order: zero padding makes the first six one word or two, and the rest
// differ only past the eighth byte.
var trapItems = [][]byte{
	[]byte(""), []byte("\x00"), []byte("ab"), []byte("ab\x00"),
	[]byte("ab\x00\x00\x00\x00\x00\x00"), []byte("ab\x00\x00\x00\x00\x00\x00\x00"),
	[]byte("12345678a"), []byte("12345678b"), []byte("12345678"),
	[]byte("00000000-a"), []byte("00000000-b"),
}

// trapItemsPayload draws up to n-1 items from trapItems.
func trapItemsPayload(rn *stats.Rand, n int) []byte {
	items := make([][]byte, rn.Intn(n))
	for i := range items {
		items[i] = trapItems[rn.Intn(len(trapItems))]
	}
	return EncodeItems(items)
}

// randomItems draws n items of up to maxLen bytes (exactly maxLen if
// fixed), each byte one of values values.
func randomItems(rn *stats.Rand, n, maxLen int, fixed bool, values int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		size := maxLen
		if !fixed {
			size = rn.Intn(maxLen + 1)
		}
		items[i] = make([]byte, size)
		for j := range items[i] {
			items[i][j] = byte(rn.Intn(values))
		}
	}
	return items
}

// The streaming merge against the reference, byte for byte: part counts on
// both sides of the stack frame's cursors, which a box tree's widest
// batch of 256 fills, and twice that; items
// short enough to be all padding, long enough to be all prefix, and drawn
// from few enough values to repeat.
func TestConcatMergeMatchesReference(t *testing.T) {
	rn := stats.NewRand(24)
	check := func(name string, parts [][]byte) {
		t.Helper()
		got, err := Concat{}.Merge([]byte("dst"), parts)
		want, _ := referenceConcat(parts)
		if err != nil || !bytes.Equal(got, append([]byte("dst"), want...)) {
			t.Fatalf("%s, %d parts: %v, differs from the reference: %x, want %x", name, len(parts), err, got, want)
		}
	}
	gens := []struct {
		name string
		gen  func() []byte
	}{
		{"traps", func() []byte { return trapItemsPayload(rn, 12) }},
		// Lengths 0-12 over two byte values: heavy duplicates.
		{"short", func() []byte { return EncodeItems(randomItems(rn, rn.Intn(20), 12, false, 2)) }},
		// The benchmark's shape.
		{"rows", func() []byte { return EncodeItems(randomItems(rn, rn.Intn(8), 100, true, 256)) }},
	}
	for _, g := range gens {
		for _, k := range []int{1, 2, 16, 128, 256, 257, 512} {
			for trial := 0; trial < 20; trial++ {
				parts := make([][]byte, k)
				for i := range parts {
					parts[i] = g.gen()
				}
				check(g.name, parts)
			}
		}
	}
}

// The items merge reads its inputs without decoding them, so it carries
// DecodeItems' checks itself — and one more, items that go backwards.
// Whatever DecodeItems rejects Merge rejects, wherever the bad part sits
// among good ones, with ErrBadPayload, without panicking and before it
// writes anything.
func TestConcatMergeRejectsMalformedParts(t *testing.T) {
	valid := EncodeItems([][]byte{[]byte("apple"), []byte("banana"), []byte(""), bytes.Repeat([]byte("c"), 200)})
	other := EncodeItems([][]byte{[]byte("aardvark"), []byte("zebra")})
	setCount := func(p []byte, count uint64) []byte {
		_, n := binary.Uvarint(p)
		return append(binary.AppendUvarint(nil, count), p[n:]...)
	}
	// What DecodeItems takes and a merge-join cannot.
	accepted := map[string]bool{"items go backwards": true, "backwards on a word tie": true, "backwards after the first": true}
	bad := map[string][]byte{
		"empty":                     nil,
		"trailing byte":             append(bytes.Clone(valid), 0),
		"count too low":             setCount(valid, 3),
		"count too high":            setCount(valid, 5),
		"count absurd":              setCount(valid, 1<<50),
		"count overflows":           append(bytes.Repeat([]byte{0xff}, 10), valid[1:]...),
		"count truncated":           {0x80},
		"length past the end":       {1, 9, 's', 'h', 'o', 'r', 't'},
		"length absurd":             append([]byte{1}, bytes.Repeat([]byte{0xff}, 9)...),
		"length truncated":          {2, 1, 'a', 0x80},
		"fault after the last item": append(setCount(other, 3), 0x80), // zebra, then a bad varint
		"items go backwards":        {2, 1, 'b', 1, 'a'},
		"backwards on a word tie":   {2, 3, 'a', 'b', 0, 2, 'a', 'b'},                      // one prefix word
		"backwards after the first": setCount(append(bytes.Clone(valid), other[1:]...), 6), // …, ccc…, aardvark, zebra
	}
	for i := 1; i < len(valid); i++ {
		bad[fmt.Sprintf("truncated at %d", i)] = valid[:i]
	}
	for name, p := range bad {
		if _, err := DecodeItems(p); (err == nil) != accepted[name] {
			t.Fatalf("%s: DecodeItems returned %v; the case does not test what it says", name, err)
		}
		for _, parts := range [][][]byte{{p}, {p, valid, other}, {valid, p, other}, {valid, other, p}} {
			out, err := Concat{}.Merge([]byte("dst"), parts)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: Merge returned %v, want ErrBadPayload", name, err)
			}
			if string(out) != "dst" {
				t.Fatalf("%s: Merge wrote %x before it refused", name, out)
			}
		}
	}
	if _, err := (Concat{}).Merge(nil, [][]byte{valid, other, EncodeItems(nil)}); err != nil {
		t.Fatal(err)
	}
}

// allocatedBy is the bytes fn allocated, by the runtime's own count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// What the merge keeps beside the parts' own bytes is nothing, however
// many items they hold: the cursors and the heap are on its stack frame.
// (A view an item, the merge's first shape, made sixteen legal frames of
// empty items 400 MB.) Refusing a part costs nothing either.
func TestConcatMergeMemoryIsBounded(t *testing.T) {
	const items = 1 << 20
	empties := append(binary.AppendUvarint(nil, items), make([]byte, items)...)
	parts := make([][]byte, 16)
	for i := range parts {
		parts[i] = empties
	}
	dst := make([]byte, 0, 16*len(empties))
	if got := allocatedBy(func() {
		if _, err := (Concat{}).Merge(dst, parts); err != nil {
			t.Fatal(err)
		}
	}); got > 64<<10 {
		t.Errorf("merging sixteen 1 MiB parts of empty items allocated %d bytes, want under 64 kB", got)
	}

	// A 1 MiB part of three-byte items in order but for the last, which
	// goes back to the first: refused after a scan of the whole part.
	const n = (1 << 20) / 4
	late := binary.AppendUvarint(nil, n)
	for i := 1; i < n; i++ {
		late = append(late, 3, byte(i>>16), byte(i>>8), byte(i))
	}
	parts[7] = append(late, 3, 0, 0, 0)
	if allocs := testing.AllocsPerRun(10, func() {
		if out, err := (Concat{}).Merge(dst, parts); !errors.Is(err, ErrBadPayload) || len(out) != 0 {
			t.Fatalf("a part that goes back: Merge returned %v and wrote %d bytes, want ErrBadPayload and none", err, len(out))
		}
	}); allocs != 0 {
		t.Errorf("refusing a part that goes back: %v allocs per run, want 0", allocs)
	}
}

// The final merge of a sort_concat job — eight runs the box merged itself,
// 1,600 rows of 100 bytes each — allocates nothing: the cursors and the
// heap are on Merge's stack frame.
func TestConcatMergeOfRunsDoesNotAllocate(t *testing.T) {
	rn := stats.NewRand(8)
	runs := make([][]byte, 8)
	size := 0
	for r := range runs {
		runs[r] = EncodeItems(randomItems(rn, 1600, 100, true, 256))
		size += len(runs[r])
	}
	dst := make([]byte, 0, size+binary.MaxVarintLen64)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := (Concat{}).Merge(dst, runs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("merging eight sorted runs: %v allocs per run, want 0", n)
	}
}

// referenceKV is the decode-everything reduction Merge must agree with:
// every pair of every part into a map, then the canonical encoding. It
// refuses what DecodeKVs refuses; keys that go backwards it reduces.
func referenceKV(op KVOp, parts [][]byte) ([]byte, error) {
	totals := map[string]int64{}
	for _, p := range parts {
		kvs, err := DecodeKVs(p)
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			if old, ok := totals[kv.Key]; ok {
				totals[kv.Key] = op.Reduce(old, kv.Val)
			} else {
				totals[kv.Key] = kv.Val
			}
		}
	}
	out := make([]KV, 0, len(totals))
	for k, v := range totals {
		out = append(out, KV{Key: k, Val: v})
	}
	return EncodeKVs(out), nil
}

// Equal keys inside one part (a producer that does not combine first
// leaves them) are reduced by the merge like equal keys across parts, for
// any number of parts down to one: no key comes out twice, and the output
// is never larger than the input.
func TestKVMergeReducesKeysInsideAndAcrossParts(t *testing.T) {
	rn := stats.NewRand(7)
	for _, op := range []KVOp{OpSum, OpMax, OpMin} {
		for trial := 0; trial < 200; trial++ {
			parts := make([][]byte, 1+rn.Intn(300)) // past kvStackCursors, and a box tree's widest batch, now and then
			total := 0
			for i := range parts {
				kvs := make([]KV, rn.Intn(12))
				for j := range kvs {
					// Keys of different lengths, some a prefix of others.
					kvs[j] = KV{Key: "k" + strings.Repeat("x", rn.Intn(4)), Val: int64(rn.Intn(100)) - 50}
				}
				parts[i] = EncodeKVs(kvs)
				total += len(parts[i])
			}
			got, err := KVCombiner{Op: op}.Merge(nil, parts)
			if err != nil {
				t.Fatal(err)
			}
			if want, err := referenceKV(op, parts); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v, %d parts: merge differs from the decode-everything reduction", op, len(parts))
			}
			if len(got) > total {
				t.Fatalf("%v: merged %d bytes into %d", op, total, len(got))
			}
		}
	}
}

// encodeKVsAsIs writes pairs in the order given, as EncodeKVs would if
// they were sorted: for parts whose keys repeat or go backwards.
func encodeKVsAsIs(kvs []KV) []byte {
	p := binary.AppendUvarint(nil, uint64(len(kvs)))
	for _, kv := range kvs {
		p = appendKV(p, []byte(kv.Key), kv.Val)
	}
	return p
}

// kvPicker says how Merge picks the keys of parts: "heap" from the start,
// "scan" all the way, or "switch" from the scan to the heap part-way. It
// opens and sorts the parts as Merge does.
func kvPicker(parts [][]byte) string {
	curs := make([]kvCursor, 0, len(parts))
	for _, p := range parts {
		var k kvCursor
		if k.open(p) != nil {
			panic("kvPicker: bad part")
		}
		if ok, _ := k.next(); ok {
			curs = append(curs, k)
		}
	}
	slices.SortFunc(curs, byKey)
	_, open, next, count, _ := (KVCombiner{}).scan(nil, curs)
	switch {
	case open == 0 && next == len(curs):
		return "scan"
	case count == 0:
		return "heap"
	}
	return "switch"
}

// Merge picks the next key by a scan over a few parts while keys repeat
// and by a heap otherwise, switching between two records written. Each
// shape, at every width and op, must come out as the decode-everything
// reduction's bytes, through the picker it is built for; and a part whose
// keys go backwards, whichever picker meets it, is refused.
func TestKVMergeScanHeapAndSwitch(t *testing.T) {
	rn := stats.NewRand(11)
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	val := func() int64 { return int64(rn.Intn(2000)) - 1000 }
	// Each shape deals key i to the parts it lists, dup times into each.
	type shape struct {
		name  string
		keys  int
		holds func(w, i int) []int
		dup   func(i int) int
		pick  func(live int) string // the picker for this many non-empty parts
	}
	all := func(w, i int) []int {
		ps := make([]int, w)
		for p := range ps {
			ps[p] = p
		}
		return ps
	}
	one := func(w, i int) []int { return []int{i % w} }
	once := func(int) int { return 1 }
	// Parts that all start at the first key open together: past
	// kvScanCursors of them the heap takes the merge before a key is
	// written.
	together := func(pick func(live int) string) func(live int) string {
		return func(live int) string {
			if live > kvScanCursors {
				return "heap"
			}
			return pick(live)
		}
	}
	// Interleaved distinct keys open a part a key, so past kvScanCursors
	// parts the scan writes a key from each of the first eight before the
	// ninth opens; below that it switches once a record taken is a key
	// written for a block.
	switches := func(int) string { return "switch" }
	// Keys every part holds are scanned to the end, except in one part,
	// where a record taken is a key written.
	scans := together(func(live int) string {
		if live == 1 {
			return "switch"
		}
		return "scan"
	})
	shapes := []shape{
		{"same-keys", 150, all, once, scans},
		{"interleaved-distinct", 300, one, once, switches},
		{"shared-then-distinct", 300, func(w, i int) []int {
			if i < 100 {
				return all(w, i)
			}
			return one(w, i)
		}, once, together(switches)},
		// A run of equal keys inside one part on each side of the switch,
		// which falls after the 64th key written.
		{"equal-keys-straddle-switch", 300, one, func(i int) int {
			if i >= kvScanBlock-2 && i <= kvScanBlock+1 {
				return 5
			}
			return 1
		}, switches},
		{"empty-parts", 150, func(w, i int) []int {
			var ps []int
			for p := 0; p < w; p += 2 {
				ps = append(ps, p)
			}
			return ps
		}, once, scans},
	}
	build := func(s shape, w int) [][]KV {
		kvs := make([][]KV, w)
		for i := 0; i < s.keys; i++ {
			for _, p := range s.holds(w, i) {
				for d := 0; d < s.dup(i); d++ {
					kvs[p] = append(kvs[p], KV{Key: key(i), Val: val()})
				}
			}
		}
		return kvs
	}
	encode := func(kvs [][]KV) [][]byte {
		parts := make([][]byte, len(kvs))
		for p := range kvs {
			parts[p] = encodeKVsAsIs(kvs[p])
		}
		return parts
	}
	seen := map[string]bool{}
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for _, s := range shapes {
			parts := encode(build(s, w))
			live := 0
			for _, p := range parts {
				if len(p) > 1 {
					live++
				}
			}
			want := s.pick(live)
			if got := kvPicker(parts); got != want {
				t.Fatalf("%s, width %d: picked by %s, built for %s", s.name, w, got, want)
			}
			seen[want] = true
			for _, op := range []KVOp{OpSum, OpMax, OpMin} {
				got, err := KVCombiner{Op: op}.Merge(nil, parts)
				if err != nil {
					t.Fatalf("%s, width %d, %v: %v", s.name, w, op, err)
				}
				if want, _ := referenceKV(op, parts); !bytes.Equal(got, want) {
					t.Fatalf("%s, width %d, %v: merge differs from the decode-everything reduction", s.name, w, op)
				}
			}
		}
		// Keys go backwards in the part holding key at: right after it
		// comes a key below it. Key at is the at-th written, so the scan,
		// the switch or the heap meets the bad step.
		for _, at := range []int{5, kvScanBlock - 2, kvScanBlock - 1, kvScanBlock, kvScanBlock + 1, 200} {
			kvs := build(shapes[1], w)
			p := at % w
			i := slices.IndexFunc(kvs[p], func(kv KV) bool { return kv.Key == key(at) })
			kvs[p] = slices.Insert(kvs[p], i+1, KV{Key: key(at - 1), Val: 1})
			if _, err := (KVCombiner{Op: OpSum}).Merge(nil, encode(kvs)); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("width %d, keys going backwards after key %d: Merge returned %v, want ErrBadPayload", w, at, err)
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("the table reaches only %v", seen)
	}
}

// sortedChunks builds s sorted streams over the same keys, each key twice
// in a row, and cuts each into c chunks: between two keys, or, if
// boundary, between a key's two records, so that a chunk starts with the
// key the one before it ends with. If empty, an empty chunk follows each.
// The chunks come back shuffled.
func sortedChunks(rn *stats.Rand, s, c, keys int, boundary, empty bool) [][]byte {
	var chunks [][]byte
	for range s {
		var kvs []KV
		for i := range keys {
			for range 2 {
				kvs = append(kvs, KV{Key: fmt.Sprintf("k%04d", i), Val: int64(rn.Intn(2000)) - 1000})
			}
		}
		// Cut at c-1 distinct places after key cut: before the next key,
		// or between its two records.
		cuts := rn.Perm(keys - 1)[:c-1]
		slices.Sort(cuts)
		from := 0
		for _, cut := range append(cuts, keys-1) {
			to := 2*cut + 2
			if boundary {
				to++
			}
			if cut == keys-1 {
				to = len(kvs)
			}
			chunks = append(chunks, encodeKVsAsIs(kvs[from:to]))
			if empty {
				chunks = append(chunks, EncodeKVs(nil))
			}
			from = to
		}
	}
	rn.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	return chunks
}

// Merge opens a part when it reaches the part's first key, so the chunks
// of a sorted stream are read one after another and the scan sees the
// streams, not the chunks: S streams cut into C shuffled chunks are
// scanned all the way for S ≤ kvScanCursors whatever C is, and past it go
// to the heap at the first key. A chunk that starts with the key the one
// before it ends with opens while that one is still open, so the key is
// reduced whole, and a stream takes two cursors there. Every result must
// be the decode-everything reduction's bytes, and a late chunk whose keys
// go backwards is refused.
func TestKVMergeOpensEachPartAtItsFirstKey(t *testing.T) {
	rn := stats.NewRand(13)
	const keys = 600
	streams := func(s, c int) string {
		if s > kvScanCursors {
			return "heap"
		}
		return "scan"
	}
	cases := []struct {
		name            string
		boundary, empty bool
		pick            func(s, c int) string
	}{
		{"between-keys", false, false, streams},
		{"empty-chunks", false, true, streams},
		// At a boundary a stream takes two cursors: with kvScanCursors
		// streams, one too many.
		{"equal-keys-across-a-boundary", true, false, func(s, c int) string {
			if c > 1 && s == kvScanCursors {
				return "switch"
			}
			return streams(s, c)
		}},
	}
	for _, s := range []int{1, 2, 8, 9, 16} {
		for _, c := range []int{1, 29} {
			for _, tc := range cases {
				parts := sortedChunks(rn, s, c, keys, tc.boundary, tc.empty)
				want := tc.pick(s, c)
				if got := kvPicker(parts); got != want {
					t.Fatalf("%s, %d streams of %d chunks: picked by %s, want %s", tc.name, s, c, got, want)
				}
				for _, op := range []KVOp{OpSum, OpMax, OpMin} {
					got, err := KVCombiner{Op: op}.Merge(nil, parts)
					if err != nil {
						t.Fatalf("%s, %d streams of %d chunks, %v: %v", tc.name, s, c, op, err)
					}
					if want, _ := referenceKV(op, parts); !bytes.Equal(got, want) {
						t.Fatalf("%s, %d streams of %d chunks, %v: merge differs from the decode-everything reduction", tc.name, s, c, op)
					}
				}
			}
			// The chunk holding the last key, which opens last, goes
			// backwards before its last record.
			parts := sortedChunks(rn, s, c, keys, false, false)
			last := slices.IndexFunc(parts, func(p []byte) bool { return bytes.Contains(p, []byte(fmt.Sprintf("k%04d", keys-1))) })
			kvs, err := DecodeKVs(parts[last])
			if err != nil {
				t.Fatal(err)
			}
			parts[last] = encodeKVsAsIs(slices.Insert(kvs, len(kvs)-1, KV{Key: "k0000", Val: 1}))
			if _, err := (KVCombiner{Op: OpSum}).Merge(nil, parts); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%d streams of %d chunks, keys going backwards in a late chunk: Merge returned %v, want ErrBadPayload", s, c, err)
			}
		}
	}
}

// The merge reads its inputs without decoding them, so it carries
// DecodeKVs' checks itself — and one more, keys that go backwards.
// Whatever DecodeKVs rejects Merge rejects, wherever the bad part sits
// among good ones, with ErrBadPayload and without panicking.
func TestKVMergeRejectsMalformedParts(t *testing.T) {
	valid := EncodeKVs([]KV{{"apple", 3}, {"banana", -70000}, {"cherry", 1 << 40}, {"date", 0}})
	other := EncodeKVs([]KV{{"banana", 1}, {"zebra", 2}})
	setCount := func(p []byte, count uint64) []byte {
		_, n := binary.Uvarint(p)
		return append(binary.AppendUvarint(nil, count), p[n:]...)
	}
	bad := map[string][]byte{
		"empty":           nil,
		"trailing byte":   append(bytes.Clone(valid), 0),
		"count too low":   setCount(valid, 3),
		"count too high":  setCount(valid, 5),
		"count absurd":    setCount(valid, 1<<50),
		"count overflows": append(bytes.Repeat([]byte{0xff}, 10), valid[1:]...),
		"descending keys": setCount(append(bytes.Clone(valid), other[1:]...), 6), // …, date, banana, zebra
	}
	for i := 1; i < len(valid); i++ {
		bad[fmt.Sprintf("truncated at %d", i)] = valid[:i]
	}
	for name, p := range bad {
		if _, err := DecodeKVs(p); err == nil && name != "descending keys" {
			t.Fatalf("%s: DecodeKVs accepts it; the case tests nothing", name)
		}
		for _, parts := range [][][]byte{{p}, {p, valid, other}, {valid, p, other}, {valid, other, p}} {
			if _, err := (KVCombiner{Op: OpSum}).Merge(nil, parts); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: Merge returned %v, want ErrBadPayload", name, err)
			}
		}
	}
}

// kvWordTrapLong is the 40-byte key whose prefixes kvWordTrapKeys holds.
const kvWordTrapLong = "key-0123456789abcdefghijklmnopqrstuvwxyz"

// kvWordTrapKeys are the keys the merge's cached key words cannot order
// alone, sorted: zero padding gives the first few and the prefixes of a
// key their words, and the keys past the sixteenth byte share the words
// of their first sixteen. Their lengths straddle a word (7, 8, 9) and the
// two (15, 16, 17), and some hold 0xff bytes, which a sign or a mask gone
// wrong would misorder.
var kvWordTrapKeys = func() []string {
	long := kvWordTrapLong
	keys := []string{"", "\x00", "ab", "ab\x00", "ab\x00\x00", "ab\xff", "ab\xff\x00"}
	for _, n := range []int{7, 8, 9, 15, 16, 17, 40} {
		keys = append(keys, long[:n], long[:n]+"\x00", strings.Repeat("\xff", n))
	}
	for _, tail := range []string{"a", "b", "a\x00", "\x00", "\xff", "b-past-the-words", "b-past-the-words\xff"} {
		keys = append(keys, long[:16]+tail, strings.Repeat("\xff", 16)+tail)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}()

// The merge compares keys on their first sixteen bytes as two cached
// words and settles a tie on the words with the keys themselves, unless
// both keys are one length of at most sixteen bytes. Keys that tie on
// their words — in length, or past the sixteenth byte — must come out as
// the decode-everything reduction's bytes through the scan, the switch to
// the heap and the heap, each key in several parts and twice in one; and a
// part whose keys go backwards only where the words cannot see it is
// refused, whether more records follow it or it ends the part, where the
// words are loaded from the key alone and not by two masked loads.
func TestKVMergeKeyWordTies(t *testing.T) {
	rn := stats.NewRand(17)
	val := func() int64 { return int64(rn.Intn(2000)) - 1000 }
	// tiePart holds every trap key, and twice those whose place is p.
	tiePart := func(keys []string, p, w int) []KV {
		var kvs []KV
		for i, k := range keys {
			kvs = append(kvs, KV{k, val()})
			if i%w == p {
				kvs = append(kvs, KV{k, val()})
			}
		}
		return kvs
	}
	// The switch comes after a block of keys each taken from one part:
	// fillers, which sort after "\x00" and before "ab".
	low, high := kvWordTrapKeys[:2], kvWordTrapKeys[2:]
	for _, c := range []struct {
		name   string
		widths []int
		filler bool
		pick   string
	}{
		{"scan", []int{2, 3, kvScanCursors}, false, "scan"},
		{"heap", []int{kvScanCursors + 1, 12}, false, "heap"},
		{"switch", []int{1, 2, 4, kvScanCursors}, true, "switch"},
	} {
		for _, w := range c.widths {
			parts := make([][]byte, w)
			for p := range parts {
				var kvs []KV
				if c.filler {
					kvs = tiePart(low, p, w)
					for i := p; i < 3*kvScanBlock; i += w {
						kvs = append(kvs, KV{fmt.Sprintf("\x01filler%04d", i), val()})
					}
					kvs = append(kvs, tiePart(high, p, w)...)
				} else {
					kvs = tiePart(kvWordTrapKeys, p, w)
				}
				parts[p] = encodeKVsAsIs(kvs)
			}
			if got := kvPicker(parts); got != c.pick {
				t.Fatalf("%s, width %d: picked by %s, built for %s", c.name, w, got, c.pick)
			}
			for _, op := range []KVOp{OpSum, OpMax, OpMin} {
				got, err := KVCombiner{Op: op}.Merge(nil, parts)
				if err != nil {
					t.Fatalf("%s, width %d, %v: %v", c.name, w, op, err)
				}
				if want, _ := referenceKV(op, parts); !bytes.Equal(got, want) {
					t.Fatalf("%s, width %d, %v: merge differs from the decode-everything reduction", c.name, w, op)
				}
			}
		}
	}

	long, ff := kvWordTrapLong, strings.Repeat("\xff", 16)
	after := KV{strings.Repeat("\xff", 40), 1} // a record more, past any load
	backwards := map[string][]KV{
		"past byte 16":                             {{long[:16] + "b", 1}, {long[:16] + "a", 2}, after},
		"past byte 16, last in the part":           {{long[:16] + "b", 1}, {long[:16] + "a", 2}},
		"past byte 16, 0xff":                       {{ff + "\xff", 1}, {ff + "b", 2}, after},
		"in length":                                {{"ab\x00", 1}, {"ab", 2}, after},
		"in length, at the part's end":             {{"ab\x00", 1}, {"ab", 2}},
		"in length past byte 8, at the part's end": {{long[:9] + "\x00", 1}, {long[:9], 2}},
		"in length, 0xff, at the part's end":       {{"\xff\xff\x00", 1}, {"\xff\xff", 2}},
		"in length past byte 16":                   {{long[:16] + "\x00", 1}, {long[:16], 2}, after},
	}
	good := encodeKVsAsIs(tiePart(kvWordTrapKeys, 0, 1))
	for name, kvs := range backwards {
		bad := encodeKVsAsIs(kvs)
		for _, w := range []int{1, 3, kvScanCursors + 2} {
			parts := [][]byte{bad}
			for len(parts) < w {
				parts = append(parts, good)
			}
			if _, err := (KVCombiner{Op: OpSum}).Merge(nil, parts); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("keys going backwards %s, width %d: Merge returned %v, want ErrBadPayload", name, w, err)
			}
		}
	}
}

// keysDescend reports whether some decodable part's keys go backwards,
// which DecodeKVs accepts and Merge refuses.
func keysDescend(parts [][]byte) bool {
	for _, p := range parts {
		kvs, _ := DecodeKVs(p)
		for i := 1; i < len(kvs); i++ {
			if kvs[i].Key < kvs[i-1].Key {
				return true
			}
		}
	}
	return false
}

// FuzzKVMerge cuts arbitrary bytes into up to 24 parts, as
// FuzzConcatMerge does, so it reaches the scan, the switch to the heap,
// the heap alone, and parts that open late, past the scan's eight. Merge
// must never panic; it refuses exactly what the decode-everything
// reduction refuses, and keys that go backwards, and what it accepts it
// merges into exactly the reduction's bytes.
func FuzzKVMerge(f *testing.F) {
	valid := EncodeKVs([]KV{{"a", 1}, {"b", 2}, {"d", -4}})
	f.Add(frameFuzzParts(EncodeKVs([]KV{{"a", 5}, {"c", 7}}), valid, EncodeKVs(nil)))
	f.Add(frameFuzzParts(encodeKVsAsIs([]KV{{"b", 1}, {"b", 2}, {"b", 3}}), valid, valid))
	// More seeds (keys going backwards, bad counts, truncation, merges long
	// and wide enough to switch to the heap or start there, the ascending
	// chunks of three and of nine sources, and keys that tie on their
	// cached words, in the heap and going backwards at a part's end) are
	// checked in under testdata/fuzz/FuzzKVMerge.
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := splitFuzzParts(data)
		parts = parts[:min(len(parts), 24)]
		out, err := KVCombiner{Op: OpSum}.Merge(nil, parts)
		want, wantErr := referenceKV(OpSum, parts)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("unexpected error %v", err)
			}
			if wantErr == nil && !keysDescend(parts) {
				t.Fatalf("Merge refuses parts the reference merges into %x", want)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("Merge accepted a part DecodeKVs rejects: %v", wantErr)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("Merge: %x, reference %x", out, want)
		}
	})
}

// FuzzDocsMerge feeds TopK.Merge and Sample.Merge two arbitrary payloads
// around a valid one. They must never panic, they accept nothing
// DecodeDocs rejects, and what they accept they merge into exactly the
// bytes of the decode-sort-encode reference.
func FuzzDocsMerge(f *testing.F) {
	valid := EncodeDocs([]Doc{{ID: 4, Score: 0.75, Text: "atom"}, {ID: 4, Score: 0.75, Text: "goal"}, {ID: 1, Score: 0.25}})
	f.Add(EncodeDocs([]Doc{{ID: 3, Score: 0.5}, {ID: 2, Score: 0.75, Text: "x"}}), EncodeDocs(nil))
	f.Add(EncodeDocs([]Doc{{ID: 4, Score: 0.75, Text: "atom"}, {ID: 9, Score: math.NaN()}}), valid)
	// Malformed seeds (records going backwards, padded varints, bad counts,
	// truncation) are checked in under testdata/fuzz/FuzzDocsMerge.
	f.Fuzz(func(t *testing.T, a, b []byte) {
		parts := [][]byte{a, valid, b}
		s := Sample{Ratio: 0.5}
		for _, c := range []struct {
			agg  Aggregator
			k    int
			keep func(uint64) bool
		}{{TopK{K: 3}, 3, nil}, {TopK{}, 0, nil}, {s, 0, s.keep}} {
			out, err := c.agg.Merge(nil, parts)
			if err != nil {
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("unexpected error %v", err)
				}
				continue
			}
			want, err := referenceDocs(parts, c.k, c.keep)
			if err != nil {
				t.Fatalf("%T.Merge accepted a part DecodeDocs rejects: %v", c.agg, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%T.Merge: %x, reference %x", c.agg, out, want)
			}
		}
	})
}

// frameFuzzParts is splitFuzzParts' inverse, for parts under 256 bytes.
func frameFuzzParts(parts ...[]byte) (data []byte) {
	for _, p := range parts {
		data = append(append(data, byte(len(p))), p...)
	}
	return data
}

// splitFuzzParts cuts fuzz bytes into parts: a length byte, then that many
// bytes (or what is left) as one part.
func splitFuzzParts(data []byte) [][]byte {
	var parts [][]byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		parts = append(parts, data[1:1+n:1+n])
		data = data[1+n:]
	}
	return parts
}

// FuzzConcatMerge cuts arbitrary bytes into parts and feeds them to
// Concat.Merge. It must never panic or touch a part, it refuses exactly
// what the collect-and-sort reference refuses, and what it accepts it
// merges into exactly the reference's bytes.
func FuzzConcatMerge(f *testing.F) {
	f.Add(frameFuzzParts(EncodeItems([][]byte{[]byte("b"), []byte("a")}), EncodeItems([][]byte{[]byte("c")})))
	f.Add(frameFuzzParts(EncodeItems(slices.Clone(trapItems))))
	// More seeds (padded prefixes that tie, lying counts, trailing bytes,
	// empty items and empty parts, and parts out of order, which both sides
	// refuse) are checked in under testdata/fuzz/FuzzConcatMerge.
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := splitFuzzParts(data)
		if len(parts) == 0 {
			return
		}
		before := bytes.Clone(data)
		out, err := Concat{}.Merge(nil, parts)
		if !bytes.Equal(data, before) {
			t.Fatal("Merge modified its input")
		}
		want, wantErr := referenceConcat(parts)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("unexpected error %v", err)
			}
			if wantErr == nil {
				t.Fatalf("Merge refuses parts the reference merges into %x", want)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("Merge accepted a part DecodeItems rejects: %v", wantErr)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("Merge: %x, reference %x", out, want)
		}
	})
}
