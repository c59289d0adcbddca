package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/wire"
)

// waitResult collects the onDone callback. It honours the ownership
// contract: the callback releases the result buffer after copying the
// bytes out for assertions.
type waitResult struct {
	ch chan struct {
		result []byte
		err    error
	}
}

func newWaitResult() *waitResult {
	return &waitResult{ch: make(chan struct {
		result []byte
		err    error
	}, 1)}
}

func (w *waitResult) done(result *bufpool.Buf, err error) {
	var p []byte
	if result != nil {
		p = append([]byte(nil), result.Bytes()...)
		result.Release()
	}
	w.ch <- struct {
		result []byte
		err    error
	}{p, err}
}

func (w *waitResult) wait(t *testing.T) ([]byte, error) {
	t.Helper()
	select {
	case r := <-w.ch:
		return r.result, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("local tree did not complete")
		return nil, nil
	}
}

// pooled copies a payload into a pool buffer, the form parts arrive in
// from the wire decoder (and the form netaggdebug poisons on release).
func pooled(p []byte) *bufpool.Buf {
	b := bufpool.Get(len(p))
	copy(b.Bytes(), p)
	return b
}

// pairwiseFold is the reference result: the parts folded with Combine in
// pairwise rounds on one goroutine.
func pairwiseFold(t *testing.T, a agg.Aggregator, parts [][]byte) []byte {
	t.Helper()
	cur := append([][]byte(nil), parts...)
	for len(cur) > 1 {
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			out, err := a.Combine(cur[i], cur[i+1])
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, out)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0]
}

// waitIdle blocks until no merge task of tree is queued or running: the
// feeder of a trickle, whose next part arrives only after the tree has
// merged everything it could. Every task broadcasts in the critical
// section that ends it.
func waitIdle(tree *LocalTree) {
	tree.mu.Lock()
	for tree.tasks > 0 {
		tree.cond.Wait()
	}
	tree.mu.Unlock()
}

// maxMerges is the most Merge calls a tree may need for n parts that
// never fill a batch by their bytes: every batch but the final one holds
// at least batchMin parts or runs and so removes at least batchMin-1 of
// them.
func maxMerges(n, maxPending int) int64 {
	batchMin := max(2, maxPending/8)
	return int64((n-1+batchMin-2)/(batchMin-1) + 1)
}

// randomKVPart encodes up to 200 distinct keys out of 1000 with random
// values, so parts of every size overlap.
func randomKVPart(rng *rand.Rand) []byte {
	n := rng.Intn(200)
	if rng.Intn(8) == 0 {
		n = 0 // an empty payload is a part like any other
	}
	seen := make(map[int]bool, n)
	kvs := make([]agg.KV, 0, n)
	for len(kvs) < n {
		if k := rng.Intn(1000); !seen[k] {
			seen[k] = true
			kvs = append(kvs, agg.KV{Key: fmt.Sprintf("key%04d", k), Val: rng.Int63n(1000) - 500})
		}
	}
	return agg.EncodeKVs(kvs)
}

func TestLocalTreeAggregatesKVs(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 16, wr.done)
	const n = 50
	for i := 0; i < n; i++ {
		if !tree.Add(pooled(agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}, {Key: "x", Val: 2}}))) {
			t.Fatal("Add refused")
		}
	}
	tree.CloseInputs()
	result, err := wr.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := agg.DecodeKVs(result)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Val != n || kvs[1].Val != 2*n {
		t.Fatalf("unexpected result %v", kvs)
	}
	if got, limit := tree.Combines(), maxMerges(n, 16); got > limit {
		t.Fatalf("%d merges, want at most %d", got, limit)
	}
}

// Whatever batches the tree happens to form — any part count, part size,
// budget, number of feeders and scheduler width — the result is the
// reference fold's, byte for byte, in no more merges than the batch size
// allows.
func TestLocalTreeMatchesPairwiseFold(t *testing.T) {
	kv := agg.KVCombiner{Op: agg.OpSum}
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(SchedulerConfig{Workers: workers, Seed: 1})
		defer s.Close()
		s.Register("wc", 1)
		rng := rand.New(rand.NewSource(int64(workers)))
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(300)
			maxPending := []int{4, 6, 16, 64, 128}[rng.Intn(5)]
			feeders := 1 + rng.Intn(4)
			trickle := rng.Intn(4) == 0 // each Add waits until the tree is idle
			parts := make([][]byte, n)
			for i := range parts {
				parts[i] = randomKVPart(rng)
			}
			want := pairwiseFold(t, kv, parts)

			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", kv, maxPending, wr.done)
			var wg sync.WaitGroup
			for f := 0; f < feeders; f++ {
				pause := rng.Intn(3) // 0: never yields, else yields every pause-th part
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					for i := f; i < n; i += feeders {
						if !tree.Add(pooled(parts[i])) {
							t.Error("Add refused")
							return
						}
						if trickle {
							waitIdle(tree)
						}
						if pause > 0 && i%pause == 0 {
							runtime.Gosched()
						}
					}
				}(f)
			}
			wg.Wait()
			tree.CloseInputs()
			got, err := wr.wait(t)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d n=%d maxPending=%d feeders=%d trickle=%v: result differs from the reference fold", workers, n, maxPending, feeders, trickle)
			}
			if got, limit := tree.Combines(), maxMerges(n, maxPending); got > limit || (n == 1 && got != 0) {
				t.Fatalf("workers=%d n=%d maxPending=%d: %d merges, want at most %d", workers, n, maxPending, got, limit)
			}
		}
	}
}

// Cut-through: with one scheduler worker and a backlog of queued batches,
// the task that ends last finds the other runs waiting and inputs closed,
// so it merges the final batch itself instead of going back through the
// scheduler.
func TestLocalTreeCutThrough(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	// Hold the only worker so every batch queues behind it.
	gate := make(chan struct{})
	if err := s.Submit("wc", func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 128, wr.done)
	const n = 40
	for i := 0; i < n; i++ {
		if !tree.Add(pooled(lonePart())) {
			t.Fatal("Add refused")
		}
	}
	tree.CloseInputs()
	close(gate)
	result, err := wr.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := agg.DecodeKVs(result)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Val != n || kvs[1].Val != n {
		t.Fatalf("unexpected result %v", kvs)
	}
	if got, limit := tree.Combines(), maxMerges(n, 128); got > limit {
		t.Fatalf("%d merges, want at most %d", got, limit)
	}
	if tree.CutThrough() == 0 {
		t.Fatal("expected a cut-through merge with a single worker and a backlog")
	}
}

// lonePart is a small KV part of two keys.
func lonePart() []byte {
	return agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}, {Key: "k", Val: 1}})
}

// The deadlock guard: with the smallest budgets the batch size must shrink
// with them, or Add would block on a full tree that has nothing to merge;
// and parts and runs, each one short of a batch, must fit the budget
// together. Trickle arrival leaves both lists as full as they get, with
// parts of one key and of two.
func TestLocalTreeSmallestBudgetCompletes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(SchedulerConfig{Workers: workers, Seed: 1})
		defer s.Close()
		s.Register("wc", 1)
		for _, part := range [][]byte{agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}}), lonePart()} {
			for _, maxPending := range []int{4, 5, 6} {
				for _, trickle := range []bool{false, true} {
					for _, n := range []int{2, 3, 17, 100, 1000} {
						wr := newWaitResult()
						tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, maxPending, wr.done)
						for i := 0; i < n; i++ {
							if !tree.Add(pooled(part)) {
								t.Fatal("Add refused")
							}
							if trickle {
								waitIdle(tree)
							}
						}
						tree.CloseInputs()
						result, err := wr.wait(t)
						if err != nil {
							t.Fatal(err)
						}
						// Every key of the part, each summed n times.
						want, err := agg.DecodeKVs(part)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							want[i].Val *= int64(n)
						}
						if !bytes.Equal(result, agg.EncodeKVs(want)) {
							kvs, _ := agg.DecodeKVs(result)
							t.Fatalf("workers=%d maxPending=%d trickle=%v n=%d: result %v, want %v", workers, maxPending, trickle, n, kvs, want)
						}
						if got, limit := tree.Combines(), maxMerges(n, maxPending); got > limit {
							t.Fatalf("workers=%d maxPending=%d trickle=%v n=%d: %d merges, want at most %d", workers, maxPending, trickle, n, got, limit)
						}
					}
				}
			}
		}
	}
}

// countingAggregator counts the bytes handed to Merge.
type countingAggregator struct {
	agg.Aggregator
	merged atomic.Int64
}

func (c *countingAggregator) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	for _, p := range parts {
		c.merged.Add(int64(len(p)))
	}
	return c.Aggregator.Merge(dst, parts)
}

// randomItemsPart encodes up to 20 random items of up to 30 bytes.
func randomItemsPart(rng *rand.Rand) []byte {
	items := make([][]byte, rng.Intn(21))
	for i := range items {
		items[i] = make([]byte, rng.Intn(31))
		rng.Read(items[i])
	}
	return agg.EncodeItems(items)
}

// concatReference is Concat's aggregate of parts: every item, in order.
func concatReference(t *testing.T, parts [][]byte) []byte {
	t.Helper()
	var all [][]byte
	for _, p := range parts {
		items, err := agg.DecodeItems(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, items...)
	}
	return agg.EncodeItems(all)
}

// A request that fits one batch — under batchBytes, in at most an eighth
// of the box's count budget — is one merge, whatever order and pace its
// parts arrive in: a sort_concat job's 128 worker parts, fed one at a
// time as they reach a box (each Add waits until the tree is idle) or in
// a burst from four feeders, and a mapred_kv job's 224 chunks of eight
// sorted sources, fed worker by worker or round-robin. Each byte is
// merged once. A larger request merges its parts in batches and its runs once
// more, so each byte at most twice: 10 MiB of items parts, which make
// two runs of a batch each, and 1,000 small parts, which make seven
// batches by their count. (A tree that batched its runs at batchBytes too
// would merge the first two runs, then their run with the last batch:
// 2.6× at 10 MiB.)
func TestLocalTreeMergesEachByteOnce(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	defer s.Close()
	s.Register("sort", 1)
	type merging struct {
		name   string
		a      agg.Aggregator
		parts  [][]byte
		want   []byte
		burst  bool
		merges int64 // exact, or 0 for any
		times  int
	}
	sortJob := benchItemParts(128)
	rng := rand.New(rand.NewSource(1))
	large := make([][]byte, 160)
	for i := range large {
		items := make([][]byte, 64)
		for j := range items {
			items[j] = make([]byte, 1<<10)
			rng.Read(items[j])
		}
		large[i] = agg.EncodeItems(items)
	}
	small := make([][]byte, 1000)
	for i := range small {
		small[i] = randomItemsPart(rng)
	}
	sources := benchKVSources()
	kv := agg.KVCombiner{Op: agg.OpSum}
	kvJob := pairwiseFold(t, kv, byWorker(sources))
	cases := []merging{
		{"sort_concat trickled", agg.Concat{}, sortJob, concatReference(t, sortJob), false, 1, 1},
		{"sort_concat burst", agg.Concat{}, sortJob, concatReference(t, sortJob), true, 1, 1},
		{"mapred_kv by worker", kv, byWorker(sources), kvJob, false, 1, 1},
		{"mapred_kv round-robin", kv, roundRobin(sources), kvJob, true, 1, 1},
		{"10 MiB of items", agg.Concat{}, large, concatReference(t, large), false, 0, 2},
		{"1,000 small items parts", agg.Concat{}, small, concatReference(t, small), true, 0, 2},
	}
	for _, c := range cases {
		in := totalLen(c.parts)
		counted := &countingAggregator{Aggregator: c.a}
		wr := newWaitResult()
		tree := NewLocalTree(s, "sort", counted, maxPending, wr.done)
		if c.burst {
			var wg sync.WaitGroup
			for f := 0; f < 4; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := f; i < len(c.parts); i += 4 {
						tree.Add(pooled(c.parts[i]))
					}
				}()
			}
			wg.Wait()
		} else {
			for _, p := range c.parts {
				tree.Add(pooled(p))
				waitIdle(tree)
			}
		}
		tree.CloseInputs()
		got, err := wr.wait(t)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: result differs from the reference", c.name)
		}
		if c.merges != 0 && tree.Combines() != c.merges {
			t.Errorf("%s: %d merges, want %d", c.name, tree.Combines(), c.merges)
		}
		// One merge reads exactly the bytes in.
		if c.merges == 1 && counted.merged.Load() != int64(in) {
			t.Errorf("%s: %d bytes merged for %d in, want exactly the bytes in", c.name, counted.merged.Load(), in)
		}
		// A run's count prefix may be wider than its inputs' were.
		slack := int64(c.times*binary.MaxVarintLen64) * tree.Combines()
		if merged := counted.merged.Load(); merged > int64(c.times*in)+slack {
			t.Errorf("%s: %d bytes merged for %d in (%.2f×), want at most %d×", c.name, merged, in, float64(merged)/float64(in), c.times)
		}
	}
}

// unsortedKVs encodes pairs in the order given, where EncodeKVs sorts.
func unsortedKVs(kvs ...agg.KV) []byte {
	p := binary.AppendUvarint(nil, uint64(len(kvs)))
	for _, kv := range kvs {
		p = binary.AppendUvarint(p, uint64(len(kv.Key)))
		p = append(p, kv.Key...)
		p = binary.AppendVarint(p, kv.Val)
	}
	return p
}

// sortedStream is one source's parts in the mapred shape: up to 300
// distinct keys out of 1000, sorted and cut into 1–12 chunks, some of
// them empty. Each cut may repeat the previous chunk's last key at the
// start of the next; and the chunks may come in descending order.
func sortedStream(rng *rand.Rand) [][]byte {
	keys := rng.Perm(1000)[:1+rng.Intn(300)]
	slices.Sort(keys)
	cuts := make([]int, rng.Intn(12))
	for i := range cuts {
		cuts[i] = rng.Intn(len(keys) + 1)
	}
	slices.Sort(cuts)
	cuts = append(cuts, len(keys))
	repeat := rng.Intn(3) == 0
	var chunks [][]byte
	from := 0
	for _, to := range cuts {
		var kvs []agg.KV
		if repeat && from > 0 && from < to {
			kvs = append(kvs, agg.KV{Key: fmt.Sprintf("key%04d", keys[from-1]), Val: rng.Int63n(1000) - 500})
		}
		for _, k := range keys[from:to] {
			kvs = append(kvs, agg.KV{Key: fmt.Sprintf("key%04d", k), Val: rng.Int63n(1000) - 500})
		}
		chunks = append(chunks, agg.EncodeKVs(kvs))
		from = to
	}
	if rng.Intn(4) == 0 {
		slices.Reverse(chunks)
	}
	return chunks
}

// Sorted sources cut into chunks, the mapred shape, reaching a tree every
// way they can: streams interleaved at random, 1–4 feeders, budgets
// 4–128, equal keys across a chunk boundary and streams whose chunks come
// in descending order. Whatever batches form, the result is the reference
// fold's, byte for byte, in no more merges than the batch size allows.
func TestLocalTreeSortedStreamsMatchPairwiseFold(t *testing.T) {
	kv := agg.KVCombiner{Op: agg.OpSum}
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(SchedulerConfig{Workers: workers, Seed: 1})
		defer s.Close()
		s.Register("wc", 1)
		rng := rand.New(rand.NewSource(int64(workers)))
		for trial := 0; trial < 30; trial++ {
			streams := make([][][]byte, 1+rng.Intn(8))
			var parts [][]byte
			for i := range streams {
				streams[i] = sortedStream(rng)
				parts = append(parts, streams[i]...)
			}
			want := pairwiseFold(t, kv, parts)
			maxPending := []int{4, 6, 16, 64, 128}[rng.Intn(5)]
			feeders := 1 + rng.Intn(4)
			// Feeder f sends the streams i ≡ f mod feeders, interleaved at
			// random, each stream's chunks in its own order.
			orders := make([][][]byte, feeders)
			for f := range orders {
				next := make([]int, len(streams))
				for {
					var open []int
					for i := f; i < len(streams); i += feeders {
						if next[i] < len(streams[i]) {
							open = append(open, i)
						}
					}
					if len(open) == 0 {
						break
					}
					i := open[rng.Intn(len(open))]
					orders[f] = append(orders[f], streams[i][next[i]])
					next[i]++
				}
			}

			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", kv, maxPending, wr.done)
			var wg sync.WaitGroup
			for _, order := range orders {
				pause := rng.Intn(3) // 0: never yields, else yields every pause-th part
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, p := range order {
						if !tree.Add(pooled(p)) {
							t.Error("Add refused")
							return
						}
						if pause > 0 && i%pause == 0 {
							runtime.Gosched()
						}
					}
				}()
			}
			wg.Wait()
			tree.CloseInputs()
			got, err := wr.wait(t)
			if err != nil {
				t.Fatal(err)
			}
			n := len(parts)
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d sources=%d n=%d maxPending=%d feeders=%d: result differs from the reference fold", workers, len(streams), n, maxPending, feeders)
			}
			if got, limit := tree.Combines(), maxMerges(n, maxPending); got > limit {
				t.Fatalf("workers=%d n=%d maxPending=%d: %d merges, want at most %d", workers, n, maxPending, got, limit)
			}
		}
	}
}

// scriptedAggregator is a KV sum whose Merge calls a hook first, with the
// 1-based number of the call; the hook may fail it or block it.
type scriptedAggregator struct {
	calls  atomic.Int64
	before func(call int64) error
}

func (a *scriptedAggregator) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	if err := a.before(a.calls.Add(1)); err != nil {
		return dst, err
	}
	return agg.KVCombiner{Op: agg.OpSum}.Merge(dst, parts)
}

func (a *scriptedAggregator) Combine(x, y []byte) ([]byte, error) {
	return a.Merge(nil, [][]byte{x, y})
}

// growingAggregator returns more bytes than it was given, so its output
// cannot fit the buffer the tree sized from the inputs.
type growingAggregator struct{}

func (growingAggregator) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	for _, p := range parts {
		dst = append(dst, p...)
		dst = append(dst, p...)
	}
	return dst, nil
}

func (g growingAggregator) Combine(x, y []byte) ([]byte, error) {
	return g.Merge(nil, [][]byte{x, y})
}

// Every way out of a merge task gives every buffer back exactly once:
// the batch's inputs, the output buffer and the parts still waiting. Run
// under -race -tags netaggdebug the released buffers are poisoned too, so
// a merge that read an input after its release would not produce the
// expected result.
func TestLocalTreeReleasesEveryBuffer(t *testing.T) {
	part := func(i int) *bufpool.Buf {
		return pooled(agg.EncodeKVs([]agg.KV{{Key: fmt.Sprintf("k%02d", i%7), Val: 1}}))
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s *Scheduler)
	}{
		{"success", func(t *testing.T, s *Scheduler) {
			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 32, wr.done)
			for i := 0; i < 50; i++ {
				tree.Add(part(i))
			}
			tree.CloseInputs()
			if _, err := wr.wait(t); err != nil {
				t.Fatal(err)
			}
		}},
		{"output outgrows the pooled buffer", func(t *testing.T, s *Scheduler) {
			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", growingAggregator{}, 32, wr.done)
			for i := 0; i < 4; i++ {
				tree.Add(pooled(bytes.Repeat([]byte{byte(i)}, 300)))
			}
			tree.CloseInputs()
			// One batch of four: each input twice over, none of it cut off.
			if out, err := wr.wait(t); err != nil || len(out) != 2*4*300 {
				t.Fatalf("grown output: %d bytes, err %v", len(out), err)
			}
		}},
		{"merge error on the second batch", func(t *testing.T, s *Scheduler) {
			boom := errors.New("boom")
			a := &scriptedAggregator{before: func(call int64) error {
				if call == 2 {
					return boom
				}
				return nil
			}}
			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", a, 32, wr.done)
			for i := 0; i < 50; i++ {
				tree.Add(part(i)) // refused (and released) once the tree has failed
			}
			tree.CloseInputs()
			if _, err := wr.wait(t); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the merge error", err)
			}
		}},
		{"discard while a merge runs", func(t *testing.T, s *Scheduler) {
			started, proceed := make(chan struct{}), make(chan struct{})
			a := &scriptedAggregator{before: func(call int64) error {
				if call == 1 {
					close(started)
					<-proceed
				}
				return nil
			}}
			tree := NewLocalTree(s, "wc", a, 32, func(res *bufpool.Buf, err error) {
				t.Errorf("onDone fired on a discarded tree (%v)", err)
				res.Release()
			})
			for i := 0; i < 6; i++ { // one batch of four in the merge, two parts waiting
				tree.Add(part(i))
			}
			<-started
			tree.Discard()
			close(proceed)
		}},
		{"scheduler closed under the tree", func(t *testing.T, s *Scheduler) {
			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 32, wr.done)
			for i := 0; i < 3; i++ {
				tree.Add(pooled(lonePart()))
			}
			s.Close()
			tree.Add(pooled(lonePart())) // makes a batch due: Submit fails, the batch goes back
			if _, err := wr.wait(t); err == nil {
				t.Fatal("expected the scheduler's error")
			}
			if tree.Add(part(4)) {
				t.Fatal("Add should refuse after failure")
			}
		}},
		{"discard with parts waiting", func(t *testing.T, s *Scheduler) {
			tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 32, func(res *bufpool.Buf, err error) {
				t.Errorf("onDone fired on a discarded tree (%v)", err)
				res.Release()
			})
			for i := 0; i < 3; i++ { // a batch is due at the fourth
				tree.Add(part(i))
			}
			if tree.Combines() != 0 {
				t.Fatal("a batch merged; the parts were meant to wait")
			}
			tree.Discard()
		}},
		{"merge fails in a part that follows another", func(t *testing.T, s *Scheduler) {
			wr := newWaitResult()
			tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 32, wr.done)
			tree.Add(pooled(agg.EncodeKVs([]agg.KV{{Key: "a", Val: 1}})))
			// It starts after "a", and "e" before "d" goes backwards: Merge
			// opens it once "a" is written, and refuses it.
			tree.Add(pooled(unsortedKVs(agg.KV{Key: "b", Val: 1}, agg.KV{Key: "e", Val: 1}, agg.KV{Key: "d", Val: 1})))
			tree.Add(pooled(agg.EncodeKVs([]agg.KV{{Key: "f", Val: 1}})))
			tree.CloseInputs()
			if _, err := wr.wait(t); !errors.Is(err, agg.ErrBadPayload) {
				t.Fatalf("err = %v, want ErrBadPayload", err)
			}
			if tree.Combines() != 1 {
				t.Fatalf("%d merges, want the final batch's one", tree.Combines())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
			s.Register("wc", 1)
			before := bufpool.ReadStats()
			c.run(t, s)
			s.Close() // drains: every merge task has returned
			after := bufpool.ReadStats()
			if acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases; acq != rel {
				t.Fatalf("bufpool unbalanced: %d acquires vs %d releases", acq, rel)
			}
		})
	}
}

// checkPanicFailsOnce feeds a tree over the aggregator a batch of parts
// and checks that the panic in its code fails the request once, with the
// panic's text: onDone fires one time, every later Add is refused, and
// every buffer goes back to the pool.
func checkPanicFailsOnce(t *testing.T, a agg.Aggregator, text string) {
	t.Helper()
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	s.Register("x", 1)
	before := bufpool.ReadStats()
	var calls atomic.Int64
	wr := newWaitResult()
	tree := NewLocalTree(s, "x", a, 32, func(res *bufpool.Buf, err error) {
		calls.Add(1)
		wr.done(res, err)
	})
	for i := 0; i < 4; i++ { // a batch is due at the fourth
		tree.Add(pooled(lonePart()))
	}
	_, err := wr.wait(t)
	if want := `core: aggregation function "x" panicked: ` + text; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if tree.Add(pooled(lonePart())) {
		t.Fatal("Add accepted a part after the panic")
	}
	tree.CloseInputs()
	s.Close() // drains: every merge task has returned
	if n := calls.Load(); n != 1 {
		t.Fatalf("onDone fired %d times, want once", n)
	}
	after := bufpool.ReadStats()
	if acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases; acq != rel {
		t.Fatalf("bufpool unbalanced: %d acquires vs %d releases", acq, rel)
	}
}

// A panic in the application's Merge fails the request, not the box.
func TestLocalTreeMergePanicFailsRequest(t *testing.T) {
	checkPanicFailsOnce(t, panicAggregator{}, "malicious aggregation function")
}

func TestLocalTreeSinglePartPassesThrough(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 8, wr.done)
	payload := agg.EncodeKVs([]agg.KV{{Key: "solo", Val: 7}})
	// Adopt transfers ownership of payload's bytes to the tree, which
	// releases them after delivery (netaggdebug poisons them then), so
	// the expectation needs its own copy.
	want := append([]byte(nil), payload...)
	tree.Add(bufpool.Adopt(payload))
	tree.CloseInputs()
	result, err := wr.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	if string(result) != string(want) {
		t.Fatal("single part must pass through unchanged")
	}
	if tree.Combines() != 0 {
		t.Fatal("no combine should run for a single part")
	}
}

func TestLocalTreeEmptyInputs(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 8, wr.done)
	tree.CloseInputs()
	result, err := wr.wait(t)
	if err != nil || result != nil {
		t.Fatalf("empty tree should yield nil result, got %v / %v", result, err)
	}
}

func TestLocalTreeReportsCombineError(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 8, wr.done)
	tree.Add(bufpool.Adopt([]byte{0xff, 0xff})) // garbage
	tree.Add(bufpool.Adopt([]byte{0xff}))
	tree.CloseInputs()
	_, err := wr.wait(t)
	if err == nil {
		t.Fatal("expected combine error")
	}
	// Further adds must be refused.
	if tree.Add(bufpool.Adopt(agg.EncodeKVs(nil))) {
		t.Fatal("Add should refuse after failure")
	}
}

func TestLocalTreeConcurrentFeeders(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 8, Seed: 1})
	defer s.Close()
	s.Register("wc", 1)
	wr := newWaitResult()
	tree := NewLocalTree(s, "wc", agg.KVCombiner{Op: agg.OpSum}, 8, wr.done)
	const feeders, perFeeder = 16, 100
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				tree.Add(bufpool.Adopt(agg.EncodeKVs([]agg.KV{{Key: "n", Val: 1}})))
			}
		}()
	}
	wg.Wait()
	tree.CloseInputs()
	result, err := wr.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	kvs, _ := agg.DecodeKVs(result)
	if len(kvs) != 1 || kvs[0].Val != feeders*perFeeder {
		t.Fatalf("lost updates: %v", kvs)
	}
	if tree.BytesIn() == 0 {
		t.Fatal("BytesIn not counted")
	}
}

// Back-pressure: with a tiny pending budget and a slow aggregator, Add must
// block rather than buffer unboundedly.
func TestLocalTreeBackpressure(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	defer s.Close()
	s.Register("slow", 1)
	slow := slowAggregator{delay: 20 * time.Millisecond}
	wr := newWaitResult()
	tree := NewLocalTree(s, "slow", slow, 4, wr.done)

	start := time.Now()
	for i := 0; i < 12; i++ {
		tree.Add(bufpool.Adopt(agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})))
	}
	// 12 adds with a budget of 4 and ~20ms per combine must take at least a
	// few combine rounds of wall time.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("adds returned too quickly (%v); back-pressure not applied", elapsed)
	}
	tree.CloseInputs()
	if _, err := wr.wait(t); err != nil {
		t.Fatal(err)
	}
}

// lengthSum is an aggregator that reads none of its parts' bytes: a part
// stands for its length, unless it is eight bytes long — then it is an
// aggregate, a big-endian count of bytes — and a merge, which takes delay,
// writes the sum as an aggregate. A test can fill a tree with parts near
// a frame at no merge cost, and every merge shrinks its batch.
type lengthSum struct{ delay time.Duration }

func (l lengthSum) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	time.Sleep(l.delay)
	var n uint64
	for _, p := range parts {
		if len(p) == 8 {
			n += binary.BigEndian.Uint64(p)
		} else {
			n += uint64(len(p))
		}
	}
	return binary.BigEndian.AppendUint64(dst, n), nil
}

func (l lengthSum) Combine(a, b []byte) ([]byte, error) {
	return l.Merge(nil, [][]byte{a, b})
}

// Back-pressure in bytes: a request's tree holds at most maxHeldBytes,
// read under its lock after every Add, through the box's count budget and
// through the smallest. Parts near a frame are the case the byte budget
// is for: the smallest count budget alone would hold four of them, the
// box's 2,048. A thousand tiny parts fill the smallest count budget
// instead, and reach the box's batch of 256 inputs four times. Merges
// are slow, so Add waits, and every wait ends — Add waits only while a
// merge is queued or running — with the bufpool balanced.
func TestLocalTreeHoldsBoundedBytes(t *testing.T) {
	big := wire.MaxPayload - 1<<10
	loads := []struct {
		name string
		a    agg.Aggregator
		n    int
		part func() *bufpool.Buf
		want func(n int) []byte
	}{
		{"parts near a frame", lengthSum{delay: 2 * time.Millisecond}, 8,
			func() *bufpool.Buf { return bufpool.Get(big) },
			func(n int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(n*big)) }},
		{"1,000 tiny parts", slowAggregator{delay: 100 * time.Microsecond}, 1000,
			func() *bufpool.Buf { return pooled(lonePart()) },
			func(n int) []byte {
				return agg.EncodeKVs([]agg.KV{{Key: "a", Val: int64(n)}, {Key: "k", Val: int64(n)}})
			}},
	}
	for _, load := range loads {
		for _, budget := range []int{maxPending, 4} {
			s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
			s.Register("x", 1)
			before := bufpool.ReadStats()
			wr := newWaitResult()
			tree := NewLocalTree(s, "x", load.a, budget, wr.done)
			peakInputs, peakBytes := 0, 0
			for i := 0; i < load.n; i++ {
				if !tree.Add(load.part()) {
					t.Fatalf("%s, budget %d: Add refused", load.name, budget)
				}
				tree.mu.Lock()
				peakInputs = max(peakInputs, len(tree.parts)+len(tree.runs)+tree.held)
				peakBytes = max(peakBytes, tree.partBytes+tree.runBytes+tree.heldBytes)
				tree.mu.Unlock()
			}
			tree.CloseInputs()
			got, err := wr.wait(t)
			s.Close() // drains: every merge task has returned
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, load.want(load.n)) {
				t.Fatalf("%s, budget %d: wrong aggregate", load.name, budget)
			}
			if peakInputs > max(budget, 4) || peakBytes > maxHeldBytes {
				t.Fatalf("%s, budget %d: held %d inputs and %d bytes, want at most %d and %d", load.name, budget, peakInputs, peakBytes, max(budget, 4), maxHeldBytes)
			}
			after := bufpool.ReadStats()
			if acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases; acq != rel {
				t.Fatalf("%s, budget %d: bufpool unbalanced: %d acquires vs %d releases", load.name, budget, acq, rel)
			}
		}
	}
}

type slowAggregator struct {
	delay time.Duration
}

func (sa slowAggregator) Merge(dst []byte, parts [][]byte) ([]byte, error) {
	time.Sleep(sa.delay)
	return agg.KVCombiner{Op: agg.OpSum}.Merge(dst, parts)
}

func (sa slowAggregator) Combine(a, b []byte) ([]byte, error) {
	return sa.Merge(nil, [][]byte{a, b})
}
