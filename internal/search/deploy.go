package search

import (
	"netagg/internal/agg"
	"netagg/internal/corpus"
	"netagg/internal/testbed"
	"netagg/internal/transport"
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
	// Trees is the number of aggregation trees per query (0 = 1). The
	// backends read it here: a sub-request does not carry it.
	Trees int
	// ChunkDocs splits backend results into parts of this many documents
	// (0 = one part), letting boxes aggregate in a streaming fashion.
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
// frontend on the master host. The frontend and every backend share cfg,
// so the trees the master waits on are the trees every backend sends over.
func Deploy(tb *testbed.Testbed, cfg DeployConfig) (*Cluster, error) {
	if cfg.Trees < 1 {
		cfg.Trees = 1
	}
	hosts := tb.WorkerHosts()
	shards := corpus.Shard(corpus.Generate(cfg.Corpus), len(hosts))

	c := &Cluster{}
	for i, host := range hosts {
		b := &Backend{cfg: &cfg, host: host, idx: i, shim: tb.Workers[host], index: NewIndex(shards[i])}
		srv, err := transport.Listen(nil, "127.0.0.1:0", b.serve, transport.ServerOptions{NIC: tb.NIC(host)})
		if err != nil {
			c.Close()
			return nil, err
		}
		b.srv = srv
		c.Backends = append(c.Backends, b)
	}
	c.Frontend = &Frontend{
		cfg:      &cfg,
		master:   tb.Master,
		backends: c.Backends,
		pool:     transport.NewPool(transport.Options{NIC: tb.NIC(testbed.MasterHost)}),
		timeout:  queryTimeout,
	}
	return c, nil
}
