package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
)

// benchKVParts builds k parts in the fabric benchmark's mapred_kv shape:
// eight workers each draw 200k keys Zipf(1.1) from 20k, combine map-side,
// sort and chunk at 512 pairs (28-29 parts of ~6 kB a worker); the parts
// are taken round-robin across the workers, so their key ranges overlap.
// That is not the order the e2e pass sends them in: its client calls each
// worker's SendPartials in turn, so a box sees one worker's disjoint,
// ascending chunks after another's, and most first-level batches reduce no
// key (ROADMAP item 5).
func benchKVParts(k int) [][]byte {
	const workers, keys, draws, chunk = 8, 20_000, 200_000, 512
	perWorker := make([][][]byte, workers)
	for w := range perWorker {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
		counts := make([]int64, keys)
		for i := 0; i < draws; i++ {
			counts[zipf.Uint64()]++
		}
		var kvs []agg.KV
		for key, n := range counts {
			if n == 0 {
				continue
			}
			kvs = append(kvs, agg.KV{Key: fmt.Sprintf("word%06d", key), Val: n})
			if len(kvs) == chunk {
				perWorker[w] = append(perWorker[w], agg.EncodeKVs(kvs))
				kvs = kvs[:0]
			}
		}
		if len(kvs) > 0 {
			perWorker[w] = append(perWorker[w], agg.EncodeKVs(kvs))
		}
	}
	parts := make([][]byte, 0, k)
	for i := 0; len(parts) < k; i++ {
		if chunks := perWorker[i%workers]; i/workers < len(chunks) {
			parts = append(parts, chunks[i/workers])
		}
	}
	return parts
}

func totalLen(parts [][]byte) (n int) {
	for _, p := range parts {
		n += len(p)
	}
	return n
}

var benchSink []byte

// BenchmarkKVMerge is the box's merge step alone: k parts of the
// mapred_kv shape folded into a pre-sized dst. It lives here, beside the
// tree benchmark, because both feed on the same parts. The target is
// 0 allocs/op at every k (the escape gate covers the code,
// BENCH_agg.json the number).
func BenchmarkKVMerge(b *testing.B) {
	for _, k := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			parts := benchKVParts(k)
			size := totalLen(parts)
			dst := make([]byte, 0, size+16)
			c := agg.KVCombiner{Op: agg.OpSum}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := c.Merge(dst, parts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

// benchDocParts builds k parts in the fabric benchmark's search_topk
// shape: 25 scored documents without text a part (~340 B), two parts a
// worker, so k = 16 is one job's worth.
func benchDocParts(k int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	parts := make([][]byte, k)
	for p := range parts {
		docs := make([]agg.Doc, 25)
		for d := range docs {
			docs[d] = agg.Doc{ID: uint64(rng.Int63n(1 << 32)), Score: rng.Float64()}
		}
		parts[p] = agg.EncodeDocs(docs)
	}
	return parts
}

// BenchmarkTopKMerge is the box's merge step of one search_topk job: the
// best 40 of sixteen sorted lists of 25. 0 allocs/op, like the KV merge.
func BenchmarkTopKMerge(b *testing.B) {
	b.Run("k=16", func(b *testing.B) {
		parts := benchDocParts(16)
		size := totalLen(parts)
		dst := make([]byte, 0, size+16)
		c := agg.TopK{K: 40}
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := c.Merge(dst, parts)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
}

// benchItemParts builds k parts in the fabric benchmark's sort_concat
// shape: 100 opaque items of 100 random bytes a part (~10 kB), in byte
// order as EncodeItems writes them — a worker's part.
func benchItemParts(k int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	parts := make([][]byte, k)
	for p := range parts {
		items := make([][]byte, 100)
		for i := range items {
			items[i] = make([]byte, 100)
			rng.Read(items[i])
		}
		parts[p] = agg.EncodeItems(items)
	}
	return parts
}

// BenchmarkConcatMerge is the box's merge step of a sort_concat job at
// its three shapes: a first-level batch of sixteen worker parts, the final
// batch of the eight runs the box merged itself (the tree batches its runs
// apart from the parts, so this is every job's last merge), and one such
// result alone, as the master folds it. Every part is read in place; the
// target is 0 allocs/op at every shape.
func BenchmarkConcatMerge(b *testing.B) {
	parts := benchItemParts(128)
	runs := make([][]byte, 8)
	for i := range runs {
		run, err := agg.Concat{}.Merge(nil, parts[16*i:16*i+16])
		if err != nil {
			b.Fatal(err)
		}
		runs[i] = run
	}
	whole, err := agg.Concat{}.Merge(nil, runs)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		parts [][]byte
	}{{"parts-k=16", parts[:16]}, {"runs-k=8", runs}, {"one", [][]byte{whole}}} {
		b.Run(c.name, func(b *testing.B) {
			size := totalLen(c.parts)
			dst := make([]byte, 0, size+16)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := agg.Concat{}.Merge(dst, c.parts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

// BenchmarkLocalTreeKV is one mapred_kv job through a box's local tree:
// 224 pooled parts merged on a 4-worker scheduler, until onDone fires.
// /burst adds them as fast as the tree takes them; /trickle waits after
// each Add until the tree is idle, which is how parts reach a box in the
// e2e pass — more slowly than a batch merges.
func BenchmarkLocalTreeKV(b *testing.B) {
	benchLocalTree(b, agg.KVCombiner{Op: agg.OpSum}, benchKVParts(224))
}

// BenchmarkLocalTreeConcat is one sort_concat job the same two ways: 128
// worker parts, eight first-level merges and the merge of their eight runs.
func BenchmarkLocalTreeConcat(b *testing.B) {
	benchLocalTree(b, agg.Concat{}, benchItemParts(128))
}

func benchLocalTree(b *testing.B, a agg.Aggregator, parts [][]byte) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Seed: 1})
	defer s.Close()
	s.Register("bench", 1)
	done := make(chan error, 1)
	onDone := func(res *bufpool.Buf, err error) {
		res.Release()
		done <- err
	}
	for _, mode := range []string{"burst", "trickle"} {
		trickle := mode == "trickle"
		b.Run(mode, func(b *testing.B) {
			job := func() {
				tree := NewLocalTree(s, "bench", a, maxPending, onDone)
				for _, p := range parts {
					tree.Add(pooled(p))
					if trickle {
						waitIdle(tree)
					}
				}
				tree.CloseInputs()
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			job() // fills the buffer pool's size classes before the clock starts
			b.SetBytes(int64(totalLen(parts)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job()
			}
		})
	}
}
