package mapred

import (
	"strings"
	"testing"

	"netagg/internal/agg"
	"netagg/internal/testbed"
)

func newTB(t *testing.T, boxes int) *testbed.Testbed {
	t.Helper()
	reg := agg.NewRegistry()
	reg.Register("job", agg.KVCombiner{Op: agg.OpSum})
	tb, err := testbed.New(testbed.Config{
		Racks:          1,
		WorkersPerRack: 4,
		BoxesPerSwitch: boxes,
		Registry:       reg,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func wordCountInputs() [][]string {
	return [][]string{
		{"a b a", "c"},
		{"a c c"},
		{"b b"},
		{"d"},
	}
}

func wcExpected() map[string]int64 {
	return map[string]int64{"a": 3, "b": 3, "c": 3, "d": 1}
}

func checkWC(t *testing.T, res *Result) {
	t.Helper()
	got := map[string]int64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Val
	}
	for k, want := range wcExpected() {
		if got[k] != want {
			t.Fatalf("%s = %d, want %d (output %v)", k, got[k], want, res.Output)
		}
	}
	if len(got) != len(wcExpected()) {
		t.Fatalf("unexpected keys: %v", got)
	}
}

func TestWordCountPlain(t *testing.T) {
	tb := newTB(t, 0)
	res, err := Run(tb, 1, JobConfig{App: "job", Op: agg.OpSum},
		wordCountInputs(), WordCount().Map)
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, res)
	if res.ShuffleReduceTime <= 0 || res.MapTime <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestWordCountNetAgg(t *testing.T) {
	tb := newTB(t, 1)
	res, err := Run(tb, 2, JobConfig{App: "job", Op: agg.OpSum},
		wordCountInputs(), WordCount().Map)
	if err != nil {
		t.Fatal(err)
	}
	checkWC(t, res)
}

// The box-side combiner must shrink what the reducer receives.
func TestNetAggReducesReducerBytes(t *testing.T) {
	gen := WordCount().Gen(GenConfig{Seed: 1, Splits: 4, RecordsPerSplit: 200, Keys: 50})
	plain := newTB(t, 0)
	resPlain, err := Run(plain, 4, JobConfig{App: "job", Op: agg.OpSum}, gen, WordCount().Map)
	if err != nil {
		t.Fatal(err)
	}
	boxed := newTB(t, 1)
	resBoxed, err := Run(boxed, 4, JobConfig{App: "job", Op: agg.OpSum}, gen, WordCount().Map)
	if err != nil {
		t.Fatal(err)
	}
	if resBoxed.BytesToReducer >= resPlain.BytesToReducer {
		t.Fatalf("boxed reducer bytes %d should be below plain %d",
			resBoxed.BytesToReducer, resPlain.BytesToReducer)
	}
	// Same answer either way.
	if len(resBoxed.Output) != len(resPlain.Output) {
		t.Fatalf("output sizes differ: %d vs %d", len(resBoxed.Output), len(resPlain.Output))
	}
	for i := range resPlain.Output {
		if resPlain.Output[i] != resBoxed.Output[i] {
			t.Fatalf("output differs at %d: %v vs %v", i, resPlain.Output[i], resBoxed.Output[i])
		}
	}
}

func TestAllBenchmarksRunAndReduceCorrectly(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			tb := newTB(t, 1)
			inputs := b.Gen(GenConfig{Seed: 7, Splits: 4, RecordsPerSplit: 100, Keys: 40})
			res, err := Run(tb, 10, JobConfig{App: "job", Op: b.Op}, inputs, b.Map)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) == 0 {
				t.Fatal("no output")
			}
			if b.Name == "TS" {
				// Identity reduce: every input row survives.
				want := 4 * 100
				if len(res.Output) != want {
					t.Fatalf("TS output %d rows, want %d", len(res.Output), want)
				}
			}
		})
	}
}

func TestTeraSortNoReduction(t *testing.T) {
	b := TeraSort()
	inputs := b.Gen(GenConfig{Seed: 1, Splits: 2, RecordsPerSplit: 50})
	tb := newTB(t, 1)
	res, err := Run(tb, 11, JobConfig{App: "job", Op: b.Op}, inputs, b.Map)
	if err != nil {
		t.Fatal(err)
	}
	// Unique keys: bytes to the reducer cannot shrink below the data.
	if res.BytesToReducer < res.IntermediateBytes/2 {
		t.Fatalf("TeraSort should not reduce: %d of %d bytes arrived",
			res.BytesToReducer, res.IntermediateBytes)
	}
	// Output is sorted.
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatal("output not sorted")
		}
	}
}

func TestWordCountAlphaControl(t *testing.T) {
	// Fewer distinct keys → more reduction → smaller intermediate:final
	// ratio, the α control used by Fig 23.
	small := WordCount().Gen(GenConfig{Seed: 1, Splits: 2, RecordsPerSplit: 300, Keys: 10})
	large := WordCount().Gen(GenConfig{Seed: 1, Splits: 2, RecordsPerSplit: 300, Keys: 3000})
	countDistinct := func(splits [][]string) int {
		words := map[string]bool{}
		for _, s := range splits {
			for _, rec := range s {
				for _, w := range strings.Fields(rec) {
					words[w] = true
				}
			}
		}
		return len(words)
	}
	if countDistinct(small) >= countDistinct(large) {
		t.Fatal("key-universe control broken")
	}
}

func TestRunRejectsTooManySplits(t *testing.T) {
	tb := newTB(t, 0)
	_, err := Run(tb, 12, JobConfig{App: "job"}, make([][]string, 10), WordCount().Map)
	if err == nil {
		t.Fatal("expected error for more splits than workers")
	}
}

// A job whose shuffle cannot be sent gives its request up: the id is free
// for the retry, not "already pending" with its partials pinned.
func TestFailedShuffleFreesItsRequest(t *testing.T) {
	tb := newTB(t, 1)
	tb.Workers[tb.WorkerHosts()[2]].Close()
	_, err := Run(tb, 7, JobConfig{App: "job", Op: agg.OpSum}, wordCountInputs(), WordCount().Map)
	if err == nil || !strings.Contains(err.Error(), "worker closed") {
		t.Fatalf("Run error = %v, want the closed worker shim's", err)
	}
	if _, err := tb.Master.Submit("job", 7, tb.WorkerHosts(), 1); err != nil {
		t.Fatalf("the failed job's request is still registered: %v", err)
	}
}
