package core

import (
	"testing"

	"netagg/internal/agg"
)

// TestMergesDoNotAllocate is the box's merge step at every row of
// BenchmarkKVMerge, BenchmarkTopKMerge and BenchmarkConcatMerge, folded
// into a pre-sized dst: 0 allocations a merge. The KV rows take the scan
// picker (k=2 to sources=8), the switch from the scan to the heap
// (distinct-k=8) and the heap's late opens (distinct-chunks=16); with the
// top-k and items rows they run every function of agg's k-way merges.
func TestMergesDoNotAllocate(t *testing.T) {
	items := benchItemParts(128)
	runs := make([][]byte, 8)
	for i := range runs {
		run, err := agg.Concat{}.Merge(nil, items[16*i:16*i+16])
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	whole, err := agg.Concat{}.Merge(nil, runs)
	if err != nil {
		t.Fatal(err)
	}
	kv := agg.KVCombiner{Op: agg.OpSum}
	chunks := roundRobin(benchKVSources()) // benchKVParts(k) is chunks[:k]
	for _, c := range []struct {
		name  string
		a     agg.Aggregator
		parts [][]byte
	}{
		{"kv/k=2", kv, chunks[:2]},
		{"kv/k=16", kv, chunks[:16]},
		{"kv/k=64", kv, chunks[:64]},
		{"kv/chunks=224", kv, chunks},
		{"kv/sources=8", kv, benchKVStreams()},
		{"kv/distinct-k=8", kv, benchKVDistinct(8)},
		{"kv/distinct-chunks=16", kv, halves(t, benchKVDistinct(8))},
		{"topk/k=16", agg.TopK{K: 40}, benchDocParts(16)},
		{"concat/parts-k=16", agg.Concat{}, items[:16]},
		{"concat/runs-k=8", agg.Concat{}, runs},
		{"concat/one", agg.Concat{}, [][]byte{whole}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst := make([]byte, 0, totalLen(c.parts)+16)
			if n := testing.AllocsPerRun(20, func() {
				if _, err := c.a.Merge(dst, c.parts); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("Merge allocates %v times a run, want 0", n)
			}
		})
	}
}

// halves cuts each KV part in two chunks and lists the first chunks, then
// the second: after the merge gives up its scan, the second chunks are
// still closed and the heap opens them late.
func halves(t *testing.T, parts [][]byte) [][]byte {
	t.Helper()
	out := make([][]byte, 2*len(parts))
	for i, p := range parts {
		kvs, err := agg.DecodeKVs(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = agg.EncodeKVs(kvs[:len(kvs)/2])
		out[len(parts)+i] = agg.EncodeKVs(kvs[len(kvs)/2:])
	}
	return out
}
