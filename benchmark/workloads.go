package main

import (
	"fmt"
	"math/rand"
	"time"

	"netagg/internal/agg"
)

// appName is the application every workload registers its aggregator under.
const appName = "bench"

// poolJobs is how many distinct jobs a workload pre-generates and cycles
// through.
const poolJobs = 16

// workload is one set of inputs plus the deployment it runs on. The names
// are fixed: later issues cite them, and BENCHMARK.json lists them.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json's
	// `why`; README.md has the long form).
	why string
	// racks × perRack workers, one box per switch: one rack gives one
	// box, two racks give a box per ToR plus one at agg:0.
	racks, perRack int
	aggregator     agg.Aggregator
	// deadline fails a job that has not completed in time.
	deadline time.Duration
	// gen makes one worker's partial results for one job.
	gen func(rng *rand.Rand) [][]byte
}

var workloads = []workload{
	{
		name: "search_topk", racks: 1, perRack: 8,
		why:        "small partials, latency-bound: per-job and per-frame fixed cost dominates, Combine does almost nothing",
		aggregator: agg.TopK{K: 40}, deadline: 5 * time.Second, gen: genTopK,
	},
	{
		name: "mapred_kv", racks: 1, perRack: 8,
		why:        "bulk key/value partials through one box: bytes, decode-merge-encode and the local tree dominate",
		aggregator: agg.KVCombiner{Op: agg.OpSum}, deadline: 30 * time.Second, gen: genKV,
	},
	{
		name: "mapred_kv_2tier", racks: 2, perRack: 4,
		why:        "the same key/value bytes through a two-level tree of three boxes: box-to-box forwarding and per-hop cost",
		aggregator: agg.KVCombiner{Op: agg.OpSum}, deadline: 30 * time.Second, gen: genKV,
	},
	{
		name: "sort_concat", racks: 1, perRack: 8,
		why:        "nothing shrinks (alpha = 1): the result is as large as the input, one 1.3 MB result frame per job",
		aggregator: agg.Concat{}, deadline: 30 * time.Second, gen: genConcat,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) workers() int { return w.racks * w.perRack }

// job is one pooled job: every worker's partial results, read-only once
// generated (the worker shims retain them for replay), and the reference
// result the fabric's answer must equal byte for byte.
type job struct {
	parts [][][]byte // [worker][part]
	ref   []byte
	// workerBytes and dataFrames are the payload bytes and TData frames
	// the workers send for this job.
	workerBytes int64
	dataFrames  int
}

// genJob makes pooled job idx from the seed alone: the same seed gives the
// same bytes, and every (job, worker) pair draws from its own stream so
// jobs can be generated in parallel.
func (w *workload) genJob(seed int64, idx int) (*job, error) {
	j := &job{parts: make([][][]byte, w.workers())}
	for wk := range j.parts {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)*251 + int64(wk)))
		j.parts[wk] = w.gen(rng)
		for _, p := range j.parts[wk] {
			j.workerBytes += int64(len(p))
			j.dataFrames++
		}
	}
	ref, err := foldParts(w.aggregator, j.flatParts())
	if err != nil {
		return nil, fmt.Errorf("reference fold of job %d: %w", idx, err)
	}
	j.ref = ref
	return j, nil
}

// flatParts lists the job's parts worker by worker, the order the
// reference fold consumes them in.
func (j *job) flatParts() [][]byte {
	var all [][]byte
	for _, ps := range j.parts {
		all = append(all, ps...)
	}
	return all
}

// foldParts is the single-threaded fold of parts with the aggregator's
// Combine, in pairwise rounds: the reference computation, and what a master
// application does with Result.Parts (search.Frontend.merge). Pairwise is
// the shape the box's local tree approximates; a left fold would re-decode
// the growing accumulator once per part (6× the work on mapred_kv) for
// byte-identical output, Combine being associative and commutative over a
// canonical encoding. The result aliases the input when only one part is
// non-empty.
func foldParts(a agg.Aggregator, parts [][]byte) ([]byte, error) {
	cur := make([][]byte, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			cur = append(cur, p)
		}
	}
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
	if len(cur) == 0 {
		return nil, nil
	}
	return cur[0], nil
}

// genTopK: 2 parts × 25 scored documents without text (~340 B a part).
func genTopK(rng *rand.Rand) [][]byte {
	parts := make([][]byte, 2)
	for p := range parts {
		docs := make([]agg.Doc, 25)
		for d := range docs {
			docs[d] = agg.Doc{ID: uint64(rng.Int63n(1 << 32)), Score: rng.Float64()}
		}
		parts[p] = agg.EncodeDocs(docs)
	}
	return parts
}

const (
	kvKeys   = 20_000
	kvDraws  = 200_000
	kvChunk  = 512
	kvZipfS  = 1.1
	itemSize = 100
)

// kvKeyNames are the key strings `word%06d`; their lexical order is their
// index order, so a counts array walked by index is already key-sorted.
var kvKeyNames = func() []string {
	names := make([]string, kvKeys)
	for i := range names {
		names[i] = fmt.Sprintf("word%06d", i)
	}
	return names
}()

// genKV: 200k Zipf(1.1) draws over 20k keys, combined map-side, sorted and
// chunked at 512 pairs (~29 parts of ~6 KB).
func genKV(rng *rand.Rand) [][]byte {
	zipf := rand.NewZipf(rng, kvZipfS, 1, kvKeys-1)
	counts := make([]int64, kvKeys)
	for i := 0; i < kvDraws; i++ {
		counts[zipf.Uint64()]++
	}
	var parts [][]byte
	chunk := make([]agg.KV, 0, kvChunk)
	for k, n := range counts {
		if n == 0 {
			continue
		}
		chunk = append(chunk, agg.KV{Key: kvKeyNames[k], Val: n})
		if len(chunk) == kvChunk {
			parts = append(parts, agg.EncodeKVs(chunk))
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		parts = append(parts, agg.EncodeKVs(chunk))
	}
	return parts
}

// genConcat: 16 parts × 100 opaque items × 100 B (~10 KB a part).
func genConcat(rng *rand.Rand) [][]byte {
	parts := make([][]byte, 16)
	for p := range parts {
		items := make([][]byte, 100)
		for i := range items {
			items[i] = make([]byte, itemSize)
			rng.Read(items[i])
		}
		parts[p] = agg.EncodeItems(items)
	}
	return parts
}
