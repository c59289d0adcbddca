package search

import (
	"fmt"
	"sync/atomic"
	"time"

	"netagg/internal/agg"
	"netagg/internal/shim"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// queryTimeout bounds one query.
const queryTimeout = 30 * time.Second

// Frontend scatters queries to the backends and returns the aggregated
// result.
type Frontend struct {
	cfg      *DeployConfig
	master   *shim.Master
	backends []*Backend
	pool     *transport.Pool // to the backends, paced by the master host's NIC
	reqID    atomic.Uint64
	timeout  time.Duration // queryTimeout; a field so a test can shorten it
}

// Close tears down the frontend's backend connection pool (each pooled
// connection owns a flusher goroutine); idempotent.
func (f *Frontend) Close() { f.pool.Close() }

// Response is one completed query.
type Response struct {
	// Docs is the final merged result.
	Docs []agg.Doc
	// Raw is the merged payload before decoding (used by categorise, whose
	// result is per-category).
	Raw []byte
	// Latency is the query round-trip time at the frontend.
	Latency time.Duration
	// Bytes is the total result payload received by the master shim.
	Bytes int64
}

// Query runs one search across all backends.
func (f *Frontend) Query(terms []string, limit int, withText bool) (*Response, error) {
	req := f.reqID.Add(1)
	workers := make([]string, len(f.backends))
	for i, b := range f.backends {
		workers[i] = b.host
	}
	start := time.Now()
	pending, err := f.master.Submit(f.cfg.App, req, workers, f.cfg.Trees)
	if err != nil {
		return nil, err
	}
	q := &Query{Terms: terms, Limit: limit, WithText: withText}
	payload := q.Encode()
	for _, b := range f.backends {
		err := f.pool.Send(b.srv.Addr(), &wire.Msg{Type: wire.TData, App: f.cfg.App, Req: req, Payload: payload})
		if err != nil {
			// The query cannot complete: give the request up rather than
			// leave it registered with its partial buffers pinned.
			pending.Cancel()
			return nil, fmt.Errorf("search: sub-request to %s: %w", b.host, err)
		}
	}
	select {
	case res := <-pending.C:
		if res.Err != nil {
			return nil, res.Err
		}
		// merge decodes the parts into fresh documents, so the pooled
		// buffers can go back as soon as it returns.
		defer res.Release()
		return f.merge(res.Parts, start)
	case <-time.After(f.timeout):
		pending.Cancel()
		return nil, fmt.Errorf("search: query %d timed out", req)
	}
}

// merge performs the final aggregation step over the collected parts and
// decodes the result.
func (f *Frontend) merge(parts [][]byte, start time.Time) (*Response, error) {
	var bytes int64
	nonEmpty := make([][]byte, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			bytes += int64(len(p))
			nonEmpty = append(nonEmpty, p)
		}
	}
	var merged []byte
	switch len(nonEmpty) {
	case 0:
	case 1:
		// Raw outlives the result's pooled buffers, which Query releases.
		merged = append([]byte(nil), nonEmpty[0]...)
	default:
		var err error
		if merged, err = f.cfg.Aggregator.Merge(make([]byte, 0, bytes), nonEmpty); err != nil {
			return nil, fmt.Errorf("search: final aggregation: %w", err)
		}
	}
	resp := &Response{Raw: merged, Latency: time.Since(start), Bytes: bytes}
	if merged != nil {
		if docs, err := agg.DecodeDocs(merged); err == nil {
			resp.Docs = docs
		}
	}
	return resp, nil
}
