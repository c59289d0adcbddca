// Package mapred is a small MapReduce framework, the repository's stand-in
// for Apache Hadoop (§3.3, §4.2.2): mappers transform input splits into
// key/value pairs (running a map-side combiner, as Hadoop does by default),
// the shuffle ships each mapper's output to the reducer over TCP through
// the NetAgg worker shims — so agg boxes can run the combiner on-path — and
// the reducer performs the final per-key reduction. The paper's testbed
// deployment (10 mappers, 1 reducer, a single aggregation tree) maps to one
// mapper per testbed worker host and the reducer on the master host.
package mapred

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"netagg/internal/agg"
	"netagg/internal/testbed"
)

// MapFunc transforms one input record into key/value pairs via emit.
type MapFunc func(record string, emit func(key string, val int64))

// JobConfig configures a job run.
type JobConfig struct {
	// App is the NetAgg application name whose combiner the boxes run.
	App string
	// Op is the per-key reduction (also used map-side and at the reducer).
	Op agg.KVOp
	// ReducerCost emulates per-KB CPU cost at the reducer (AdPredictor's
	// compute-heavy reduce); zero means none.
	ReducerCost time.Duration
}

// chunkPairs splits a mapper's output into parts of this many pairs, so
// boxes aggregate the stream chunk by chunk.
const chunkPairs = 4096

// Result is a completed job.
type Result struct {
	// Output is the final reduced key/value list, key-sorted.
	Output []agg.KV
	// MapTime covers running the mappers (and map-side combine).
	MapTime time.Duration
	// ShuffleReduceTime covers the shuffle through the network/boxes and
	// the final reduction — the paper's "shuffle and reduce time (SRT)".
	ShuffleReduceTime time.Duration
	// BytesToReducer is the payload volume the reducer's shim received.
	BytesToReducer int64
	// IntermediateBytes is the total encoded mapper output shuffled.
	IntermediateBytes int64
}

// Run executes a job on the testbed: inputs[i] is the input split of the
// mapper on worker host i (len(inputs) must not exceed the worker count).
func Run(tb *testbed.Testbed, jobID uint64, cfg JobConfig, inputs [][]string, mapper MapFunc) (*Result, error) {
	hosts := tb.WorkerHosts()
	if len(inputs) > len(hosts) {
		return nil, fmt.Errorf("mapred: %d splits but only %d worker hosts", len(inputs), len(hosts))
	}
	hosts = hosts[:len(inputs)]

	// Map phase (in-process: the map computation is not on NetAgg's path).
	mapStart := time.Now()
	parts := make([][][]byte, len(inputs))
	var intermediate int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pairs := runMapper(inputs[i], mapper, cfg)
			var encoded [][]byte
			for off := 0; off < len(pairs) || off == 0; off += chunkPairs {
				end := off + chunkPairs
				if end > len(pairs) {
					end = len(pairs)
				}
				enc := agg.EncodeKVs(pairs[off:end])
				encoded = append(encoded, enc)
				mu.Lock()
				intermediate += int64(len(enc))
				mu.Unlock()
				if end >= len(pairs) {
					break
				}
			}
			parts[i] = encoded
		}(i)
	}
	wg.Wait()
	mapTime := time.Since(mapStart)

	// Shuffle + reduce: register the request (one aggregation tree, as in
	// the paper's deployment), ship every mapper's chunks through its
	// worker shim, and reduce what arrives.
	shuffleStart := time.Now()
	pending, err := tb.Master.Submit(cfg.App, jobID, hosts, 1)
	if err != nil {
		return nil, err
	}
	errs := make(chan error, len(hosts))
	for i, host := range hosts {
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			errs <- tb.Workers[host].SendPartials(cfg.App, jobID, i, testbed.MasterHost, parts[i], 1)
		}(i, host)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			// The shuffle cannot complete: give the request up rather than
			// leave it registered with its partial buffers pinned.
			pending.Cancel()
			return nil, err
		}
	}

	res := <-pending.C
	if res.Err != nil {
		return nil, res.Err
	}
	output, received, err := reduce(res.Parts, cfg)
	// reduce decodes every part into its own KV slices; recycle the
	// pooled buffers before the error check so both paths give them back.
	res.Release()
	if err != nil {
		return nil, err
	}
	return &Result{
		Output:            output,
		MapTime:           mapTime,
		ShuffleReduceTime: time.Since(shuffleStart),
		BytesToReducer:    received,
		IntermediateBytes: intermediate,
	}, nil
}

// runMapper maps one split and combines its pairs map-side, as Hadoop
// does by default.
func runMapper(split []string, mapper MapFunc, cfg JobConfig) []agg.KV {
	combined := make(map[string]int64)
	for _, rec := range split {
		mapper(rec, func(k string, v int64) {
			if old, seen := combined[k]; seen {
				v = cfg.Op.Reduce(old, v)
			}
			combined[k] = v
		})
	}
	out := make([]agg.KV, 0, len(combined))
	for k, v := range combined {
		out = append(out, agg.KV{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// reduce merges the shuffled parts into the final output. The reducer
// re-reads everything it receives even when a box already fully aggregated
// it, matching the paper's transparency decision ("the reducer is unaware
// that the results received from the agg box are already final and,
// regardless, reads them again").
func reduce(parts [][]byte, cfg JobConfig) ([]agg.KV, int64, error) {
	var received int64
	nonEmpty := make([][]byte, 0, len(parts))
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		received += int64(len(part))
		if cfg.ReducerCost > 0 {
			time.Sleep(time.Duration(float64(len(part)) / 1024 * float64(cfg.ReducerCost)))
		}
		nonEmpty = append(nonEmpty, part)
	}
	var out []agg.KV
	merged, err := agg.KVCombiner{Op: cfg.Op}.Merge(make([]byte, 0, received+binary.MaxVarintLen64), nonEmpty)
	if err == nil {
		out, err = agg.DecodeKVs(merged)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("mapred: reduce: %w", err)
	}
	return out, received, nil
}
