package tbfig

import (
	"fmt"
	"time"

	"netagg/internal/agg"
	"netagg/internal/mapred"
	"netagg/internal/metrics"
	"netagg/internal/testbed"
	"netagg/internal/treeplan"
)

// newHadoopTB builds the Hadoop experiment deployment (§4.2.2): one rack of
// mapper hosts on 1 Gbps links, the reducer on the master host, one 10 Gbps
// agg box when boxes > 0.
func newHadoopTB(mappers, boxes int, reducerCost time.Duration) (*testbed.Testbed, error) {
	reg := agg.NewRegistry()
	combiner := agg.Aggregator(agg.KVCombiner{Op: agg.OpSum})
	if reducerCost > 0 {
		// The box-side combiner merges pre-sorted encoded streams, cheaper
		// per byte than the reducer's full deserialise-reduce-write pass;
		// the box also re-touches bytes across merge levels, so quartering the
		// per-KB cost keeps the total box compute comparable to one pass.
		combiner = agg.VirtualCost{Inner: agg.KVCombiner{Op: agg.OpSum}, PerKB: reducerCost / 4}
	}
	reg.Register("hadoop", combiner)
	return testbed.New(testbed.Config{
		Racks:          1,
		WorkersPerRack: mappers,
		BoxesPerSwitch: boxes,
		EdgeGbps:       1,
		BoxGbps:        10,
		Registry:       reg,
		// The paper's boxes are 16-core servers; the reducer is a single
		// task. The pool size carries that asymmetry (compute emulated with
		// virtual cost on this single-CPU host).
		BoxWorkers: 16,
		Planner:    treeplan.OnPath{},
		Seed:       1,
	})
}

// runHadoop executes one benchmark job plain and on NetAgg and returns the
// two results.
func runHadoop(b mapred.Benchmark, gen mapred.GenConfig, jobID uint64) (plain, boxed *mapred.Result, err error) {
	inputs := b.Gen(gen)
	cfg := mapred.JobConfig{
		App:         "hadoop",
		Op:          b.Op,
		ReducerCost: b.ReducerCost,
	}
	for _, boxes := range []int{0, 1} {
		tb, terr := newHadoopTB(gen.Splits, boxes, b.ReducerCost)
		if terr != nil {
			return nil, nil, terr
		}
		res, rerr := mapred.Run(tb, jobID, cfg, inputs, b.Map)
		tb.Close()
		if rerr != nil {
			return nil, nil, rerr
		}
		if boxes == 0 {
			plain = res
		} else {
			boxed = res
		}
	}
	return plain, boxed, nil
}

// hadoopGen sizes the benchmark inputs: 8 mappers with a few hundred KB of
// post-combine intermediate data each, large relative to the emulated
// links' burst credit so the shuffle is genuinely bandwidth-bound. Every
// mapper covers most of the key universe, giving the ~10 % output ratio the
// paper reports for typical jobs.
func hadoopGen(seed int64) mapred.GenConfig {
	return mapred.GenConfig{Seed: seed, Splits: 8, RecordsPerSplit: 20000, Keys: 20000}
}

// Fig22 regenerates Figure 22: for each Hadoop benchmark, the shuffle and
// reduce time on NetAgg relative to plain Hadoop, and the agg box
// processing rate.
func Fig22(o Options) *metrics.Report {
	table := metrics.NewTable(
		"Fig 22 — Hadoop benchmarks: shuffle+reduce time ratio and box rate",
		"benchmark", "rel_SRT(netagg/plain)", "speedup", "box_rate_gbps_equiv",
	)
	for i, b := range mapred.All() {
		gen := hadoopGen(o.seed())
		if b.Name == "TS" {
			gen.RecordsPerSplit = 8000 // unique keys: keep volumes comparable
		}
		plain, boxed, err := runHadoop(b, gen, uint64(100+i))
		if err != nil {
			panic(fmt.Sprintf("tbfig: %s: %v", b.Name, err))
		}
		rel := boxed.ShuffleReduceTime.Seconds() / plain.ShuffleReduceTime.Seconds()
		boxRate := gbpsEquiv(boxed.IntermediateBytes, boxed.ShuffleReduceTime)
		table.AddRow(b.Name, rel, 1/rel, boxRate)
	}
	return &metrics.Report{
		ID:    "fig22",
		Title: "Performance of Hadoop benchmarks",
		Table: table,
		Notes: "TS (identity reduce) shows no benefit; AP's gain is capped by its compute-heavy reduce",
	}
}

// Fig23 regenerates Figure 23: WordCount shuffle+reduce time (relative to
// plain Hadoop) against the output ratio α, controlled via word repetition
// (the key-universe size).
func Fig23(o Options) *metrics.Report {
	table := metrics.NewTable(
		"Fig 23 — WordCount relative SRT vs output ratio α",
		"keys", "measured_alpha", "rel_SRT(netagg/plain)", "speedup",
	)
	b := mapred.WordCount()
	for i, keys := range []int{2000, 20000, 200000, 2000000} {
		gen := hadoopGen(o.seed())
		gen.RecordsPerSplit = 10000
		// α rises with the vocabulary: once the key universe dwarfs a
		// mapper's word count, mappers' outputs stop overlapping and
		// cross-mapper aggregation stops shrinking the data.
		gen.Keys = keys
		plain, boxed, err := runHadoop(b, gen, uint64(200+i))
		if err != nil {
			panic(fmt.Sprintf("tbfig: %v", err))
		}
		alpha := float64(boxed.BytesToReducer) / float64(boxed.IntermediateBytes)
		rel := boxed.ShuffleReduceTime.Seconds() / plain.ShuffleReduceTime.Seconds()
		table.AddRow(keys, alpha, rel, 1/rel)
	}
	return &metrics.Report{
		ID:    "fig23",
		Title: "Shuffle and reduce time against output ratio (Hadoop WordCount)",
		Table: table,
		Notes: "α measured as reducer bytes over intermediate bytes; more word repetition = lower α = bigger gain",
	}
}

// Fig24 regenerates Figure 24: WordCount absolute shuffle+reduce time
// against the intermediate data size.
func Fig24(o Options) *metrics.Report {
	table := metrics.NewTable(
		"Fig 24 — WordCount shuffle+reduce time (s) vs intermediate data size",
		"intermediate_MB", "hadoop_s", "netagg_s", "speedup",
	)
	b := mapred.WordCount()
	for i, records := range []int{5000, 10000, 20000, 40000} {
		gen := hadoopGen(o.seed())
		gen.RecordsPerSplit = records
		// The vocabulary scales with the input so the post-combine
		// intermediate volume grows too (real text keeps finding new words);
		// the output ratio stays roughly constant across the sweep.
		gen.Keys = records
		plain, boxed, err := runHadoop(b, gen, uint64(300+i))
		if err != nil {
			panic(fmt.Sprintf("tbfig: %v", err))
		}
		mb := float64(boxed.IntermediateBytes) / 1e6
		table.AddRow(mb,
			plain.ShuffleReduceTime.Seconds(),
			boxed.ShuffleReduceTime.Seconds(),
			plain.ShuffleReduceTime.Seconds()/boxed.ShuffleReduceTime.Seconds())
	}
	return &metrics.Report{
		ID:    "fig24",
		Title: "Shuffle and reduce time against intermediate data sizes (Hadoop)",
		Table: table,
		Notes: "the benefit grows with intermediate size as the shuffle dominates job time",
	}
}
