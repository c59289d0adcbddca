package search

import (
	"netagg/internal/agg"
	"netagg/internal/corpus"
	"netagg/internal/testbed"
)

// DeployConfig assembles a complete search deployment on a testbed.
type DeployConfig struct {
	// App names the NetAgg application (must be registered in the testbed's
	// aggregator registry when boxes are deployed).
	App string
	// Corpus configures the document collection sharded over the backends.
	Corpus corpus.Config
	// Aggregator is the frontend's final aggregation function (usually the
	// same one the boxes run).
	Aggregator agg.Aggregator
	// Categorise marks payloads as raw documents for agg.Categorise.
	Categorise bool
	// Trees is the number of aggregation trees per query.
	Trees int
	// ChunkDocs splits backend results into parts of this many documents.
	ChunkDocs int
}

// Cluster is a running search deployment.
type Cluster struct {
	Frontend *Frontend
	Backends []*Backend
}

// Close stops the frontend's connection pool and the backends (the
// testbed owns the shims and boxes).
func (c *Cluster) Close() {
	if c.Frontend != nil {
		c.Frontend.Close()
	}
	for _, b := range c.Backends {
		b.Close()
	}
}

// Deploy builds indices, starts one backend per worker host, and wires a
// frontend on the master host.
func Deploy(tb *testbed.Testbed, cfg DeployConfig) (*Cluster, error) {
	hosts := tb.WorkerHosts()
	docs := corpus.Generate(cfg.Corpus)
	shards := corpus.Shard(docs, len(hosts))

	c := &Cluster{}
	refs := make([]BackendRef, 0, len(hosts))
	for i, host := range hosts {
		b, err := StartBackend(BackendConfig{
			App:        cfg.App,
			WorkerIdx:  i,
			Master:     testbed.MasterHost,
			Shim:       tb.Workers[host],
			Index:      NewIndex(shards[i]),
			NIC:        tb.NIC(host),
			Categorise: cfg.Categorise,
			ChunkDocs:  cfg.ChunkDocs,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Backends = append(c.Backends, b)
		refs = append(refs, BackendRef{Host: host, Addr: b.Addr()})
	}
	c.Frontend = NewFrontend(FrontendConfig{
		App:        cfg.App,
		Master:     tb.Master,
		Backends:   refs,
		Aggregator: cfg.Aggregator,
		Trees:      cfg.Trees,
		NIC:        tb.NIC(testbed.MasterHost),
	})
	return c, nil
}
