// Package agg defines the aggregation function interface that agg boxes
// execute (§3.2.1 "Aggregation tasks") and the built-in aggregators used by
// the evaluation: key/value combiners for map/reduce workloads (WordCount,
// AdPredictor, PageRank, UserVisits), top-k merging for search, the paper's
// two Solr functions — the cheap `sample` and the CPU-intensive
// `categorise` — and an identity concatenation for non-reducible data
// (TeraSort).
//
// Aggregators operate on serialised partial results ([]byte) so boxes can
// host unmodified application functions behind a thin wrapper, mirroring
// the paper's aggregation wrappers. Every aggregator must be associative
// and commutative (§2.1) over its codec's canonical form: Merge of any
// number of parts must be byte-equal to any pairwise fold of the same
// parts, in any grouping and order. That is what lets a box fold whatever
// has arrived — two parts or sixty — in one call, and a later hop fold the
// results again. It holds only if the canonical order is a total one: two
// records that differ in any byte must have a place relative to each
// other that no grouping can change. Key/value pairs order on the key's
// bytes and equal keys are reduced to one; search results order on
// compareDocs — score descending (NaN last), ID ascending, then the
// encoded record; opaque items order on their bytes and equal items are
// all kept. Every encoder writes its canonical order, and all four merges
// (KVCombiner, TopK, Sample, Concat) read encoded parts in place and
// refuse a part that is out of their order.
package agg

import "fmt"

// Aggregator folds serialised partial results into one.
type Aggregator interface {
	// Merge folds len(parts) >= 1 canonical payloads into one and appends
	// the result to dst (append-style: the return value is dst extended,
	// reallocated only if dst's spare capacity was too small). The result
	// is byte-equal to any pairwise Combine fold of the same parts; a
	// single part comes back in canonical form. Merge must not retain,
	// modify or alias a part: the aggregation tree releases every input
	// buffer back to the pool the moment Merge returns, and owns dst (see
	// core.LocalTree and DESIGN.md §13). On error the contents of dst
	// beyond its original length are unspecified.
	Merge(dst []byte, parts [][]byte) ([]byte, error)
	// Combine is Merge of exactly two parts into a fresh slice, for
	// callers that fold by hand (applications, reference folds, tests).
	// Every built-in Combine is the same one-line adapter over Merge.
	Combine(a, b []byte) ([]byte, error)
}

// Registry maps application names to their aggregator, the box-side
// counterpart of deploying an application's aggregation function.
type Registry struct {
	byName map[string]Aggregator
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Aggregator)}
}

// Register adds an aggregator under the application name. It panics on a
// duplicate name, which indicates a deployment configuration error.
func (r *Registry) Register(app string, a Aggregator) {
	if _, dup := r.byName[app]; dup {
		panic(fmt.Sprintf("agg: duplicate application %q", app))
	}
	r.byName[app] = a
}

// Lookup returns the application's aggregator.
func (r *Registry) Lookup(app string) (Aggregator, bool) {
	a, ok := r.byName[app]
	return a, ok
}

// Apps lists the registered application names.
func (r *Registry) Apps() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	return out
}
