package search

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/corpus"
	"netagg/internal/stats"
	"netagg/internal/testbed"
	"netagg/internal/testutil"
	"netagg/internal/transport"
	"netagg/internal/wire"
)

func TestIndexSearchScoresAndRanks(t *testing.T) {
	docs := []corpus.Document{
		{ID: 1, Text: "apple banana apple"},
		{ID: 2, Text: "banana cherry"},
		{ID: 3, Text: "cherry cherry cherry"},
	}
	idx := NewIndex(docs)
	if idx.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", idx.NumDocs())
	}
	res := idx.Search([]string{"apple"}, 10, false)
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("apple search = %+v", res)
	}
	res = idx.Search([]string{"cherry"}, 10, false)
	if len(res) != 2 || res[0].ID != 3 {
		t.Fatalf("cherry ranking = %+v", res)
	}
	// Limit applies.
	if res := idx.Search([]string{"banana", "cherry"}, 1, false); len(res) != 1 {
		t.Fatalf("limit ignored: %+v", res)
	}
	// Unknown terms give no results.
	if res := idx.Search([]string{"zzz"}, 10, false); len(res) != 0 {
		t.Fatalf("unknown term matched: %+v", res)
	}
}

func TestIndexWithText(t *testing.T) {
	idx := NewIndex([]corpus.Document{{ID: 1, Text: "hello world"}})
	res := idx.Search([]string{"hello"}, 0, true)
	if len(res) != 1 || res[0].Text != "hello world" {
		t.Fatalf("text missing: %+v", res)
	}
	res = idx.Search([]string{"hello"}, 0, false)
	if res[0].Text != "" {
		t.Fatal("text should be omitted")
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	q := &Query{Terms: []string{"a", "bb"}, Limit: 7, WithText: true}
	out, err := DecodeQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Terms) != 2 || out.Terms[1] != "bb" || out.Limit != 7 || !out.WithText {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if _, err := DecodeQuery([]byte{0xff}); err == nil {
		t.Fatal("expected error for corrupt query")
	}
}

// craftedQuery is a sub-request in the encoding that once carried a tree
// count (limit 0, no flags, trees 100000, no terms): a backend that
// trusted it sent that many streams, each past the 16th clamped onto tree
// 15's wire id.
var craftedQuery = []byte{0, 0, 0xa0, 0x8d, 0x06, 0}

// FuzzDecodeQuery feeds DecodeQuery the bytes a backend reads off the
// network: it must not panic, and every query it accepts must encode back
// to a query it decodes the same.
func FuzzDecodeQuery(f *testing.F) {
	f.Add(craftedQuery)
	f.Add((&Query{Terms: []string{"a", "bb"}, Limit: 7, WithText: true}).Encode())
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		q, err := DecodeQuery(p)
		if err != nil {
			return
		}
		again, err := DecodeQuery(q.Encode())
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", q, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("round trip changed the query: %+v became %+v", q, again)
		}
	})
}

// newSearchRig deploys a search cluster over a testbed with topk
// aggregation; boxes=0 gives the plain deployment.
func newSearchRig(t *testing.T, boxes int) (*testbed.Testbed, *Cluster) {
	t.Helper()
	reg := agg.NewRegistry()
	reg.Register("search", agg.TopK{K: 10})
	tb, err := testbed.New(testbed.Config{
		Racks:          2,
		WorkersPerRack: 3,
		BoxesPerSwitch: boxes,
		Registry:       reg,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	cl, err := Deploy(tb, DeployConfig{
		App:        "search",
		Corpus:     corpus.Config{Seed: 1, Docs: 600, WordsPerDoc: 60, VocabularySize: 500, ZipfS: 1.1},
		Aggregator: agg.TopK{K: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return tb, cl
}

func TestDistributedSearchPlain(t *testing.T) {
	_, cl := newSearchRig(t, 0)
	rn := stats.NewRand(2)
	resp, err := cl.Frontend.Query(corpus.QueryWords(rn, 500, 3), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) == 0 {
		t.Fatal("no results")
	}
	if len(resp.Docs) > 10 {
		t.Fatalf("top-k overflow: %d", len(resp.Docs))
	}
	for i := 1; i < len(resp.Docs); i++ {
		if resp.Docs[i].Score > resp.Docs[i-1].Score {
			t.Fatal("results not ranked")
		}
	}
}

// The aggregated deployment must return exactly the same top-k as the plain
// one: on-path aggregation is transparent to the application (§3).
func TestDistributedSearchNetAggMatchesPlain(t *testing.T) {
	_, plain := newSearchRig(t, 0)
	_, netagg := newSearchRig(t, 1)
	rn := stats.NewRand(3)
	for q := 0; q < 5; q++ {
		terms := corpus.QueryWords(rn, 500, 3)
		a, err := plain.Frontend.Query(terms, 10, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := netagg.Frontend.Query(terms, 10, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Docs) != len(b.Docs) {
			t.Fatalf("query %v: %d vs %d results", terms, len(a.Docs), len(b.Docs))
		}
		for i := range a.Docs {
			if a.Docs[i].ID != b.Docs[i].ID {
				t.Fatalf("query %v: rank %d differs: %d vs %d", terms, i, a.Docs[i].ID, b.Docs[i].ID)
			}
		}
	}
}

func TestDistributedSearchNetAggReducesMasterBytes(t *testing.T) {
	_, plain := newSearchRig(t, 0)
	_, netagg := newSearchRig(t, 1)
	rn := stats.NewRand(4)
	terms := corpus.QueryWords(rn, 500, 3)
	a, err := plain.Frontend.Query(terms, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netagg.Frontend.Query(terms, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bytes >= a.Bytes {
		t.Fatalf("netagg master bytes %d should be below plain %d", b.Bytes, a.Bytes)
	}
}

func TestSearchCategorise(t *testing.T) {
	cat := agg.Categorise{K: 5, Categories: corpus.Categories()}
	reg := agg.NewRegistry()
	reg.Register("search-cat", cat)
	tb, err := testbed.New(testbed.Config{
		Racks:          1,
		WorkersPerRack: 4,
		BoxesPerSwitch: 1,
		Registry:       reg,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	cl, err := Deploy(tb, DeployConfig{
		App:        "search-cat",
		Corpus:     corpus.Config{Seed: 1, Docs: 400, WordsPerDoc: 80, VocabularySize: 400, ZipfS: 1.1},
		Aggregator: cat,
		Categorise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	rn := stats.NewRand(5)
	resp, err := cl.Frontend.Query(corpus.QueryWords(rn, 400, 3), 50, true)
	if err != nil {
		t.Fatal(err)
	}
	per, err := cat.TopPerCategory(resp.Raw)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, docs := range per {
		if len(docs) > 5 {
			t.Fatalf("category exceeded K: %d", len(docs))
		}
		total += len(docs)
	}
	if total == 0 {
		t.Fatal("categorise returned nothing")
	}
}

func TestMultipleTreesSearch(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("search", agg.TopK{K: 10})
	tb, err := testbed.New(testbed.Config{
		Racks:          2,
		WorkersPerRack: 2,
		BoxesPerSwitch: 2, // scale-out so trees use disjoint boxes
		Registry:       reg,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	cl, err := Deploy(tb, DeployConfig{
		App:        "search",
		Corpus:     corpus.Config{Seed: 1, Docs: 400, WordsPerDoc: 60, VocabularySize: 300, ZipfS: 1.1},
		Aggregator: agg.TopK{K: 10},
		Trees:      2,
		ChunkDocs:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rn := stats.NewRand(6)
	resp, err := cl.Frontend.Query(corpus.QueryWords(rn, 300, 3), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) == 0 {
		t.Fatal("no results over multiple trees")
	}
}

// The tree count belongs to the deployment, not to the query: a
// sub-request naming a tree count is not one a backend accepts, so it
// sends nothing, and the query after it reaches the boxes alone.
func TestSubRequestCannotNameTrees(t *testing.T) {
	tb, cl := newSearchRig(t, 1)
	terms := corpus.QueryWords(stats.NewRand(7), 500, 3)
	if _, err := cl.Frontend.Query(terms, 10, false); err != nil {
		t.Fatal(err)
	}
	once := tb.BoxStats().BytesIn
	if once == 0 {
		t.Fatal("the query sent no bytes through the boxes")
	}

	srv := cl.Backends[0].srv
	framesIn := srv.Stats().FramesIn
	c := transport.NewConn(nil, srv.Addr(), transport.Options{})
	defer c.Close()
	// Besides craftedQuery, the same query naming two trees: a backend
	// that took it would send its one part on a stream of its own, which
	// the box counts.
	msgs := []*wire.Msg{
		{Type: wire.TData, App: "search", Req: 1 << 20, Payload: craftedQuery},
		{Type: wire.TData, App: "search", Req: 1<<20 + 1, Payload: []byte{0, 0, 2, 0}},
		// The backend reads one connection's frames in order, so once
		// this one is in, it is done with the others.
		{Type: wire.THeartbeat, App: "search"},
	}
	if err := c.SendAll(msgs); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, "the backend to read every frame", func() bool { return srv.Stats().FramesIn == framesIn+int64(len(msgs)) })

	if _, err := cl.Frontend.Query(terms, 10, false); err != nil {
		t.Fatal(err)
	}
	if in := tb.BoxStats().BytesIn; in != 2*once {
		t.Fatalf("boxes read %d payload bytes over two equal queries, want %d: a crafted sub-request sent a stream", in, 2*once)
	}
}

// TestAbandonedQueryFreesItsRequest pins what a query that gives up leaves
// behind at the master shim: nothing. Whether a sub-request could not be
// sent or the deadline passed, the request is cancelled, so its id can be
// submitted again at once instead of answering "already pending" (with its
// partial buffers pinned) for as long as the master lives.
func TestAbandonedQueryFreesItsRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		// sabotage makes the next query fail in the named way.
		sabotage func(tb *testbed.Testbed, cl *Cluster)
		want     string
	}{{
		name:     "sub-request cannot be sent",
		sabotage: func(_ *testbed.Testbed, cl *Cluster) { cl.Backends[0].Close() },
		want:     "sub-request to",
	}, {
		// The backends take the query but their shims are gone, so no
		// partial result is ever sent.
		name: "backends never answer",
		sabotage: func(tb *testbed.Testbed, cl *Cluster) {
			for _, w := range tb.Workers {
				w.Close()
			}
			cl.Frontend.timeout = 50 * time.Millisecond
		},
		want: "timed out",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tb, cl := newSearchRig(t, 1)
			tc.sabotage(tb, cl)
			_, err := cl.Frontend.Query([]string{"w1"}, 10, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Query error = %v, want one naming %q", err, tc.want)
			}
			if _, err := tb.Master.Submit("search", cl.Frontend.reqID.Load(), tb.WorkerHosts(), 1); err != nil {
				t.Fatalf("the abandoned query's request is still registered: %v", err)
			}
		})
	}
}
