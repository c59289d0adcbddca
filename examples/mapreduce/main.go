// WordCount with on-path combiners: a MapReduce job over eight mappers,
// run plain (all intermediate data shuffles to the reducer) and with a
// NetAgg box running the combiner on-path. The outputs match; the reducer's
// inbound volume and the shuffle+reduce time do not.
//
// Run with: go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"

	"netagg/internal/agg"
	"netagg/internal/mapred"
	"netagg/internal/testbed"
)

func run(boxes int, inputs [][]string) (*mapred.Result, error) {
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	tb, err := testbed.New(testbed.Config{
		Racks:          1,
		WorkersPerRack: len(inputs),
		BoxesPerSwitch: boxes,
		EdgeGbps:       1,
		BoxGbps:        10,
		Registry:       reg,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	return mapred.Run(tb, 1, mapred.JobConfig{
		App: "wc",
		Op:  agg.OpSum,
	}, inputs, mapred.WordCount().Map)
}

func main() {
	wc := mapred.WordCount()
	inputs := wc.Gen(mapred.GenConfig{Seed: 3, Splits: 8, RecordsPerSplit: 6000, Keys: 5000})

	plain, err := run(0, inputs)
	if err != nil {
		log.Fatal(err)
	}
	boxed, err := run(1, inputs)
	if err != nil {
		log.Fatal(err)
	}

	if len(plain.Output) != len(boxed.Output) {
		log.Fatalf("outputs differ: %d vs %d keys", len(plain.Output), len(boxed.Output))
	}
	for i := range plain.Output {
		if plain.Output[i] != boxed.Output[i] {
			log.Fatalf("key %q differs", plain.Output[i].Key)
		}
	}

	fmt.Printf("word count over %d mappers: %d distinct words (identical outputs)\n",
		len(inputs), len(plain.Output))
	fmt.Printf("%-22s %12s %18s\n", "", "reducer MB", "shuffle+reduce")
	fmt.Printf("%-22s %12.2f %18s\n", "plain Hadoop-style", float64(plain.BytesToReducer)/1e6, plain.ShuffleReduceTime)
	fmt.Printf("%-22s %12.2f %18s\n", "with NetAgg on-path", float64(boxed.BytesToReducer)/1e6, boxed.ShuffleReduceTime)
	fmt.Printf("speedup: %.2fx, reducer volume: %.1fx less\n",
		plain.ShuffleReduceTime.Seconds()/boxed.ShuffleReduceTime.Seconds(),
		float64(plain.BytesToReducer)/float64(boxed.BytesToReducer))
}
