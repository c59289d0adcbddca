// Command aggbox runs a standalone NetAgg aggregation middlebox: it listens
// for partial-result streams from shim layers (or upstream boxes), executes
// the configured aggregation functions on its cooperative task scheduler,
// and forwards aggregated results along the routes the streams carry
// (§3.2.1). The built-in aggregation functions cover the paper's workloads:
//
//	wordcount    key/value sum combiner (Hadoop-style)
//	kvmax,kvmin  key/value max/min combiners
//	topk         top-k search result merge (k=10)
//	sample       random-subset search aggregation (α=0.05)
//	categorise   CPU-intensive per-category top-k classification
//	concat       identity concatenation (no reduction)
//
// Usage:
//
//	aggbox [-addr :7100] [-id 1] [-workers 8] [-debug 127.0.0.1:7180]
//
// With -debug, the box serves the /debug/netagg observability endpoint
// (live metrics, per-request traces, health, pprof — see OPERATIONS.md)
// on the given address.
//
// Multiple boxes can be chained by shims that put several box addresses on
// a stream's route.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"netagg/internal/agg"
	"netagg/internal/core"
	"netagg/internal/corpus"
	"netagg/internal/obs"
)

// newRegistry builds the box's application registry (shared with the
// shutdown test).
func newRegistry() *agg.Registry {
	reg := agg.NewRegistry()
	reg.Register("wordcount", agg.KVCombiner{Op: agg.OpSum})
	reg.Register("kvmax", agg.KVCombiner{Op: agg.OpMax})
	reg.Register("kvmin", agg.KVCombiner{Op: agg.OpMin})
	reg.Register("topk", agg.TopK{K: 10})
	reg.Register("sample", agg.Sample{Ratio: 0.05})
	reg.Register("categorise", agg.Categorise{K: 10, Categories: corpus.Categories()})
	reg.Register("concat", agg.Concat{})
	return reg
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7100", "listen address")
	id := flag.Uint64("id", 1, "box identifier (must be unique per deployment)")
	workers := flag.Int("workers", 8, "scheduler thread pool size")
	debug := flag.String("debug", "", "serve /debug/netagg observability endpoint on this address (empty = off)")
	flag.Parse()

	reg := newRegistry()

	// The signal context is the box's lifetime: SIGINT/SIGTERM cancels
	// it, and Close tears the box down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	box, err := core.Start(core.Config{
		ID:       *id << 32,
		Addr:     *addr,
		Workers:  *workers,
		Registry: reg,
	})
	if err != nil {
		log.Fatalf("aggbox: %v", err)
	}
	fmt.Printf("aggbox %d listening on %s (apps: %v)\n", *id, box.Addr(), reg.Apps())

	if *debug != "" {
		health := func() map[string]interface{} {
			st := box.Stats()
			return map[string]interface{}{
				"box_id":    *id,
				"data_addr": box.Addr(),
				"requests":  st.Requests,
				"bytes_in":  st.BytesIn,
				"bytes_out": st.BytesOut,
				"combines":  st.Combines,
			}
		}
		dbgAddr, stopDbg, err := obs.Serve(ctx, *debug, obs.Handler(obs.Default, obs.DefaultTracer, health))
		if err != nil {
			log.Fatalf("aggbox: debug endpoint: %v", err)
		}
		defer stopDbg()
		fmt.Printf("aggbox %d debug endpoint on http://%s/debug/netagg/metrics\n", *id, dbgAddr)
	}

	<-ctx.Done()
	st := box.Stats()
	fmt.Printf("aggbox shutting down: %d requests, %.1f MB in, %.1f MB out, %d combines\n",
		st.Requests, float64(st.BytesIn)/1e6, float64(st.BytesOut)/1e6, st.Combines)
	box.Close()
}
