package search

import (
	"log"

	"netagg/internal/agg"
	"netagg/internal/shim"
	"netagg/internal/testbed"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

// Backend serves sub-requests from the frontend: it searches its shard and
// ships the partial results through the worker shim, which redirects them
// to the first on-path agg box (§3.3).
type Backend struct {
	cfg   *DeployConfig
	host  string
	idx   int // worker index within the frontend's backend list
	shim  *shim.Worker
	index *Index
	srv   *transport.Server
}

// Close stops the backend.
func (b *Backend) Close() { b.srv.Close() }

// serve answers one sub-request frame.
func (b *Backend) serve(_ *transport.ServerConn, m *wire.Msg) {
	defer m.Release() // DecodeQuery copies the terms out
	if m.Type != wire.TData {
		return
	}
	q, err := DecodeQuery(m.Payload)
	if err != nil {
		return
	}
	b.answer(m.Req, q)
}

// answer executes the query and ships the partial results via the shim,
// over the deployment's trees.
func (b *Backend) answer(req uint64, q *Query) {
	docs := b.index.Search(q.Terms, q.Limit, q.WithText)
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
	if err := b.shim.SendPartials(b.cfg.App, req, b.idx, testbed.MasterHost, parts, b.cfg.Trees); err != nil {
		log.Printf("search: backend %s sending request %d: %v", b.host, req, err)
	}
}
