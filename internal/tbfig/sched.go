package tbfig

import (
	"fmt"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/core"
	"netagg/internal/metrics"
)

// Fig15 regenerates Figure 15: the processing rate of an in-memory local
// aggregation tree for different numbers of leaves (concurrent feeders) and
// scheduler thread-pool sizes, using the WordCount combine workload with
// virtualised per-byte cost (single-CPU host).
func Fig15(o Options) *metrics.Report {
	leaves := []int{2, 4, 8, 16, 32}
	threads := []int{2, 4, 8, 16}
	header := []string{"leaves"}
	for _, th := range threads {
		header = append(header, fmt.Sprintf("threads=%d_gbps", th))
	}
	table := metrics.NewTable("Fig 15 — local aggregation tree processing rate (Gbps-equiv)", header...)

	aggregator := agg.VirtualCost{Inner: agg.KVCombiner{Op: agg.OpSum}, PerKB: 400 * time.Microsecond}
	part := agg.EncodeKVs(makeKVs(600))

	for _, l := range leaves {
		row := []interface{}{l}
		for _, th := range threads {
			row = append(row, localTreeRate(l, th, aggregator, part, o))
		}
		table.AddRow(row...)
	}
	return &metrics.Report{
		ID:    "fig15",
		Title: "Processing rate of an in-memory local aggregation tree",
		Table: table,
		Notes: "WordCount combine at 400µs/KB virtual cost; leaves are concurrent feeders (single-CPU host)",
	}
}

// localTreeRate feeds a local tree from `leaves` goroutines for the window
// and returns the ingest rate in Gbps-equivalent.
func localTreeRate(leaves, threads int, aggregator agg.Aggregator, part []byte, o Options) float64 {
	sched := core.NewScheduler(core.SchedulerConfig{Workers: threads, Seed: 1})
	defer sched.CloseNow()
	sched.Register("fig15", 1)
	done := make(chan struct{})
	tree := core.NewLocalTree(sched, "fig15", aggregator, 4*leaves, func(res *bufpool.Buf, _ error) {
		res.Release()
		close(done)
	})

	stop := make(chan struct{})
	for i := 0; i < leaves; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Each Add hands over its own reference; Adopt wraps the
				// shared read-only part without copying.
				if !tree.Add(bufpool.Adopt(part)) {
					return
				}
			}
		}()
	}
	start := time.Now()
	window := o.window() / 3
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	time.Sleep(window)
	bytes := tree.BytesIn()
	dur := time.Since(start)
	close(stop)
	tree.CloseInputs()
	<-done
	return gbpsEquiv(bytes, dur)
}

func makeKVs(n int) []agg.KV {
	kvs := make([]agg.KV, n)
	for i := range kvs {
		kvs[i] = agg.KV{Key: fmt.Sprintf("word%06d", i), Val: 1}
	}
	return kvs
}

// cpuShareSweep measures the per-application CPU share on one agg box over
// time while a Solr-like application (long tasks) and a Hadoop-like
// application (short tasks) both keep the box backlogged (§4.2.3).
func cpuShareSweep(title string, adaptive bool, o Options) *metrics.Table {
	sched := core.NewScheduler(core.SchedulerConfig{Workers: 2, Adaptive: adaptive, Seed: 1})
	defer sched.CloseNow()
	sched.Register("solr", 1)
	sched.Register("hadoop", 1)

	// Open-loop backlog: Solr tasks ~30 ms, Hadoop tasks ~1 ms (§4.2.3:
	// "a Solr task takes, on average, 30 ms ... a Hadoop task runs only
	// for" a few ms). Sleeping tasks emulate CPU cost on the 1-CPU host.
	backlog := int(o.window().Seconds()*1000) + 500
	for i := 0; i < backlog; i++ {
		sched.Submit("solr", func() { time.Sleep(30 * time.Millisecond) })
		for j := 0; j < 4; j++ {
			sched.Submit("hadoop", func() { time.Sleep(time.Millisecond) })
		}
	}

	table := metrics.NewTable(title, "time_s", "solr_share_%", "hadoop_share_%")
	interval := 200 * time.Millisecond
	steps := int(o.window() / interval)
	if steps < 5 {
		steps = 5
	}
	var prevSolr, prevHadoop time.Duration
	for i := 1; i <= steps; i++ {
		time.Sleep(interval)
		solr, hadoop := sched.CPUTime("solr"), sched.CPUTime("hadoop")
		ds, dh := solr-prevSolr, hadoop-prevHadoop
		prevSolr, prevHadoop = solr, hadoop
		total := ds + dh
		if total <= 0 {
			table.AddRow(float64(i)*interval.Seconds(), 0.0, 0.0)
			continue
		}
		table.AddRow(float64(i)*interval.Seconds(),
			100*ds.Seconds()/total.Seconds(),
			100*dh.Seconds()/total.Seconds())
	}
	return table
}

// Fig25 regenerates Figure 25: CPU sharing between Solr and Hadoop under
// the non-adaptive weighted fair scheduler — the long Solr tasks starve
// Hadoop despite equal target shares.
func Fig25(o Options) *metrics.Report {
	table := cpuShareSweep("Fig 25 — CPU share over time, fixed-weight WFQ", false, o)
	return &metrics.Report{
		ID:    "fig25",
		Title: "CPU resource fair sharing with a non-adaptive scheduler (Fig 25)",
		Table: table,
		Notes: "equal 50/50 target shares; fixed weights pick tasks equally often, so long Solr tasks dominate CPU",
	}
}

// Fig26 regenerates Figure 26: the adaptive scheduler corrects the weights
// by measured task time and splits CPU evenly.
func Fig26(o Options) *metrics.Report {
	table := cpuShareSweep("Fig 26 — CPU share over time, adaptive WFQ", true, o)
	return &metrics.Report{
		ID:    "fig26",
		Title: "CPU resource fair sharing with the adaptive scheduler (Fig 26)",
		Table: table,
		Notes: "equal 50/50 target shares; weights adapt as w_i = s_i/t̄_i and CPU time converges to 50/50",
	}
}
