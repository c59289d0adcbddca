package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
)

// benchKVParts builds k parts in the fabric benchmark's mapred_kv shape
// (benchKVSources), taken round-robin across the workers, so that the key
// ranges of neighbouring parts overlap.
func benchKVParts(k int) [][]byte {
	return roundRobin(benchKVSources())[:k]
}

// benchKVSources builds the parts of one mapred_kv job, worker by worker:
// eight workers each draw 200k keys Zipf(1.1) from 20k, combine map-side,
// sort and chunk at 512 pairs, so each worker's 28-29 parts of ~6 kB are
// disjoint and ascend one after another.
func benchKVSources() [][][]byte {
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
	return perWorker
}

// byWorker lists every source's parts after the previous source's: the
// order the e2e pass sends a job in, its client calling each worker's
// SendPartials in turn.
func byWorker(sources [][][]byte) [][]byte {
	var parts [][]byte
	for _, s := range sources {
		parts = append(parts, s...)
	}
	return parts
}

// roundRobin lists the sources' first parts, then their second parts,
// and so on.
func roundRobin(sources [][][]byte) [][]byte {
	var parts [][]byte
	for i := 0; ; i++ {
		n := len(parts)
		for _, s := range sources {
			if i < len(s) {
				parts = append(parts, s[i])
			}
		}
		if len(parts) == n {
			return parts
		}
	}
}

func totalLen(parts [][]byte) (n int) {
	for _, p := range parts {
		n += len(p)
	}
	return n
}

var benchSink []byte

// benchKVStreams is each worker's parts of one mapred_kv job as one
// sorted stream, eight streams that share their keys (5.7 records a key):
// the merge of the job's chunks with none of them opened late.
func benchKVStreams() [][]byte {
	sources := benchKVSources()
	streams := make([][]byte, len(sources))
	for w, parts := range sources {
		var kvs []agg.KV
		for _, p := range parts {
			chunk, err := agg.DecodeKVs(p)
			if err != nil {
				panic(err)
			}
			kvs = append(kvs, chunk...)
		}
		streams[w] = agg.EncodeKVs(kvs)
	}
	return streams
}

// benchKVDistinct builds k parts that share no key: the job's 20k keys
// dealt round-robin, so every record taken is a key written — the merge
// of interleaved parts at its costliest.
func benchKVDistinct(k int) [][]byte {
	const keys = 20_000
	kvs := make([][]agg.KV, k)
	for key := 0; key < keys; key++ {
		kvs[key%k] = append(kvs[key%k], agg.KV{Key: fmt.Sprintf("word%06d", key), Val: int64(key%100 + 1)})
	}
	parts := make([][]byte, k)
	for i := range parts {
		parts[i] = agg.EncodeKVs(kvs[i])
	}
	return parts
}

// BenchmarkKVMerge is the box's merge step alone, folded into a pre-sized
// dst: k parts of the mapred_kv shape, taken round-robin; the 224 chunks
// of one mapred_kv job, round-robin (chunks=224), the merge a box makes
// of it, which opens each chunk at its first key; the job's eight worker
// streams, each one part (sources=8); and eight parts that share no key
// (distinct-k=8), where the merge gives up its scan for the heap. It lives here, beside the
// tree benchmark, because both feed on the same parts. The target is
// 0 allocs/op on every row (TestMergesDoNotAllocate gates it,
// BENCH_agg.json records it).
func BenchmarkKVMerge(b *testing.B) {
	type row struct {
		name  string
		parts [][]byte
	}
	var rows []row
	for _, k := range []int{2, 16, 64} {
		rows = append(rows, row{fmt.Sprintf("k=%d", k), benchKVParts(k)})
	}
	rows = append(rows, row{"chunks=224", roundRobin(benchKVSources())}, row{"sources=8", benchKVStreams()}, row{"distinct-k=8", benchKVDistinct(8)})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			size := totalLen(r.parts)
			dst := make([]byte, 0, size+16)
			c := agg.KVCombiner{Op: agg.OpSum}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := c.Merge(dst, r.parts)
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

// BenchmarkConcatMerge is the items merge of a sort_concat job at three
// shapes: sixteen worker parts, the eight runs of sixteen parts each, and
// one whole result alone, as the master folds it. A box merges a job's
// 128 parts in one batch (BenchmarkLocalTreeConcat); these rows keep the
// kernel's cost at a fixed width comparable from commit to commit. Every
// part is read in place; the target is 0 allocs/op at every shape.
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
// e2e pass — more slowly than a batch merges. The plain rows take the
// parts round-robin across the workers; /by-worker-* takes them worker by
// worker, the order the e2e pass sends them in. Either way the job is one
// merge, which reads each worker's parts one after another.
func BenchmarkLocalTreeKV(b *testing.B) {
	sources := benchKVSources()
	benchLocalTree(b, "", agg.KVCombiner{Op: agg.OpSum}, roundRobin(sources))
	benchLocalTree(b, "by-worker-", agg.KVCombiner{Op: agg.OpSum}, byWorker(sources))
}

// BenchmarkLocalTreeConcat is one sort_concat job the same two ways: 128
// worker parts, one batch under batchBytes, so one 128-way merge.
func BenchmarkLocalTreeConcat(b *testing.B) {
	benchLocalTree(b, "", agg.Concat{}, benchItemParts(128))
}

// benchLocalTree runs the /<prefix>burst and /<prefix>trickle rows.
func benchLocalTree(b *testing.B, prefix string, a agg.Aggregator, parts [][]byte) {
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
		b.Run(prefix+mode, func(b *testing.B) {
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
