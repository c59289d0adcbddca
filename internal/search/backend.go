package search

import (
	"netagg/internal/agg"
	"netagg/internal/netem"
	"netagg/internal/shim"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// BackendConfig configures a backend (index) server.
type BackendConfig struct {
	// App is the NetAgg application name (selects the aggregation function
	// deployed on the boxes, e.g. "search-sample").
	App string
	// WorkerIdx is this backend's index within the frontend's backend list.
	WorkerIdx int
	// Master is the frontend's host name.
	Master string
	// Shim is this host's worker shim.
	Shim *shim.Worker
	// Index is the shard index served.
	Index *Index
	// NIC optionally paces the backend's request listener.
	NIC *netem.NIC
	// Categorise, when true, tags outgoing payloads as raw documents for
	// the Categorise aggregation function.
	Categorise bool
	// ChunkDocs splits results into parts of this many documents (0 = one
	// part), letting boxes aggregate in a streaming fashion.
	ChunkDocs int
}

// Backend serves sub-requests from the frontend: it searches its shard and
// ships the partial results through the worker shim, which redirects them
// to the first on-path agg box (§3.3).
type Backend struct {
	cfg BackendConfig
	srv *transport.Server
}

// StartBackend launches a backend server.
func StartBackend(cfg BackendConfig) (*Backend, error) {
	b := &Backend{cfg: cfg}
	srv, err := transport.Listen(nil, "127.0.0.1:0",
		func(_ *transport.ServerConn, m *wire.Msg) {
			defer m.Release() // DecodeQuery copies the terms out
			if m.Type != wire.TData {
				return
			}
			q, err := DecodeQuery(m.Payload)
			if err != nil {
				return
			}
			b.answer(m.Req, q)
		}, transport.ServerOptions{NIC: cfg.NIC})
	if err != nil {
		return nil, err
	}
	b.srv = srv
	return b, nil
}

// Addr returns the backend's request address.
func (b *Backend) Addr() string { return b.srv.Addr() }

// Close stops the backend.
func (b *Backend) Close() { b.srv.Close() }

// answer executes the query and ships the partial results via the shim.
func (b *Backend) answer(req uint64, q *Query) {
	docs := b.cfg.Index.Search(q.Terms, q.Limit, q.WithText)
	var parts [][]byte
	chunk := b.cfg.ChunkDocs
	if chunk <= 0 {
		chunk = len(docs)
	}
	for off := 0; off < len(docs) || off == 0; off += chunk {
		end := off + chunk
		if end > len(docs) {
			end = len(docs)
		}
		enc := agg.EncodeDocs(docs[off:end])
		if b.cfg.Categorise {
			enc = agg.TagDocs(enc)
		}
		parts = append(parts, enc)
		if end >= len(docs) {
			break
		}
	}
	trees := q.Trees
	if trees < 1 {
		trees = 1
	}
	b.cfg.Shim.SendPartials(b.cfg.App, req, b.cfg.WorkerIdx, b.cfg.Master, parts, trees)
}
