package testbed

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/obs"
	"netagg/internal/shim"
	"netagg/internal/treeplan"
)

// wcTestbed deploys cfg with the word-count combiner registered as "wc".
func wcTestbed(t *testing.T, cfg Config) *Testbed {
	t.Helper()
	cfg.Registry = agg.NewRegistry()
	cfg.Registry.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// finishJob has every worker send one partial for the submitted request
// and waits for its successful result.
func finishJob(t *testing.T, tb *Testbed, reqID uint64, pending *shim.Pending) shim.Result {
	t.Helper()
	for i, host := range tb.WorkerHosts() {
		part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: int64(i + 1)}})
		if err := tb.Workers[host].SendPartials("wc", reqID, i, MasterHost, [][]byte{part}, 1); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case res := <-pending.C:
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete")
		return shim.Result{}
	}
}

// TestTraceCompleteness runs one job through a boxed deployment and
// asserts the request's trace covers every hop exactly once: one
// shim.send span per worker, one box span per box on the aggregation
// tree, and one master span (the tentpole's acceptance criterion).
func TestTraceCompleteness(t *testing.T) {
	tb := wcTestbed(t, Config{Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 1})

	// A req id no other test or run uses: the DefaultTracer is
	// process-global.
	reqID := 0xABC200 + runs.Add(1)
	workers := tb.WorkerHosts()
	pending, err := tb.Master.Submit("wc", reqID, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	finishJob(t, tb, reqID, pending)

	// 2 racks × 1 box/switch: tor:0, tor:1 and agg:0 all sit on some
	// worker→master path, so all three boxes aggregate.
	wireReq := cluster.WireReq(reqID, 0, 0)
	wantBoxes := len(tb.Boxes)
	wantShims := len(workers)

	// Boxes record their span after the downstream emit completes, so
	// the master can observe completion first: poll briefly.
	var tr obs.Trace
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ok bool
		tr, ok = obs.DefaultTracer.Lookup(wireReq, "wc")
		if ok && spanCount(tr, "shim.send") == wantShims &&
			spanCount(tr, "box") == wantBoxes && spanCount(tr, "master") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("incomplete trace: shim.send=%d/%d box=%d/%d master=%d/1 (spans: %+v)",
				spanCount(tr, "shim.send"), wantShims,
				spanCount(tr, "box"), wantBoxes, spanCount(tr, "master"), tr.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !tr.Done {
		t.Fatal("trace must be marked done after the master completed it")
	}

	// Exactly once per node: no hop double-reports.
	nodes := map[string]int{}
	for _, s := range tr.Spans {
		nodes[s.Hop+"/"+s.Node]++
	}
	for key, n := range nodes {
		if n != 1 {
			t.Fatalf("hop %s appears %d times, want exactly once (trace: %+v)", key, n, tr.Spans)
		}
	}
	// Every worker shim reported under its own host name.
	for _, host := range workers {
		if nodes["shim.send/"+host] != 1 {
			t.Fatalf("worker %s has no shim.send span: %v", host, nodes)
		}
	}
	// Span invariants: timestamps ordered, box fan-in positive.
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s/%s ends before it starts: %+v", s.Hop, s.Node, s)
		}
		if s.Hop == "box" {
			if s.Parts <= 0 || s.BytesIn <= 0 {
				t.Fatalf("box span missing fan-in accounting: %+v", s)
			}
			if s.Agg < s.Start || s.Agg > s.End {
				t.Fatalf("box span Agg outside [Start, End]: %+v", s)
			}
		}
	}
}

// TestDebugEndpointServes checks the Config.DebugAddr wiring: the
// endpoint binds, reports the deployment in /health, and shuts down
// with Close.
func TestDebugEndpointServes(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	tb, err := New(Config{
		Racks: 1, WorkersPerRack: 2, BoxesPerSwitch: 1,
		Registry: reg, DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := tb.DebugAddr()
	if addr == "" {
		tb.Close()
		t.Fatal("DebugAddr must report the bound address")
	}
	resp, err := http.Get("http://" + addr + "/debug/netagg/health")
	if err != nil {
		tb.Close()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health map[string]interface{}
	if err := json.Unmarshal(body, &health); err != nil {
		tb.Close()
		t.Fatalf("health is not JSON: %v", err)
	}
	if health["boxes"] != float64(1) || health["workers"] != float64(2) {
		tb.Close()
		t.Fatalf("health = %v", health)
	}

	tb.Close()
	// After Close the endpoint must be down.
	client := &http.Client{Timeout: 500 * time.Millisecond}
	if _, err := client.Get(fmt.Sprintf("http://%s/debug/netagg/health", addr)); err == nil {
		t.Fatal("debug endpoint still serving after Close")
	}
}

// TestDebugEndpointCoversEveryLayer is what an operator sees after one
// plain job and one forced subtree migration (DESIGN.md §16, OPERATIONS.md
// §9), read the way an operator reads it — over HTTP from a live
// deployment: every instrumented layer reports into /metrics, the batched
// write path was exercised, and the migration left its span on the
// request's trace. It catches what the in-process tests cannot: a layer
// that silently goes dark, or an export that breaks JSON consumers.
func TestDebugEndpointCoversEveryLayer(t *testing.T) {
	// One switch with two boxes: a request uses one of them, so once it has
	// run a slow job that box reports a load and its sibling none.
	tb := wcTestbed(t, Config{
		Racks: 1, WorkersPerRack: 2, BoxesPerSwitch: 2,
		// The workers below send at the epoch the migration superseded; the
		// straggler timer re-syncs them.
		StragglerTimeout: 300 * time.Millisecond,
		DebugAddr:        "127.0.0.1:0",
	})
	base := "http://" + tb.DebugAddr() + "/debug/netagg"
	workers := tb.WorkerHosts()
	boxOf := func(req uint64) uint64 {
		tree := treeplan.OnPath{}.Plan(tb.Dep, treeplan.NewRequest(req, 0, 0, MasterHost, workers))
		for id := range tree.Expect {
			return id
		}
		t.Fatalf("request %d planned through no box", req)
		return 0
	}

	// One complete job so every layer has something to report — a slow one:
	// the second worker sends 60 ms after the first, so the box's flush
	// latency, the load its heartbeat echoes carry from now on, is 60,000 µs
	// or more.
	const reqID = 0xABC124
	pending, err := tb.Master.Submit("wc", reqID, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	part := agg.EncodeKVs([]agg.KV{{Key: "k", Val: 1}})
	if err := tb.Workers[workers[0]].SendPartials("wc", reqID, 0, MasterHost, [][]byte{part}, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := tb.Workers[workers[1]].SendPartials("wc", reqID, 1, MasterHost, [][]byte{part}, 1); err != nil {
		t.Fatal(err)
	}
	res := <-pending.C
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	res.Release()

	// A second request through the same box, then the control loop as an
	// operator starts it. The threshold sits between the two boxes whatever
	// the host is doing: an RTT sample never exceeds the 20 ms interval (a
	// slower echo is a miss, costed at the interval), so the idle sibling
	// cannot reach 30,000 µs, and the box that ran the slow job cannot fall
	// below it. Two heartbeats in, the loop finds that box hot and migrates
	// the pending request onto the sibling; the cooldown outlasts the test,
	// so nothing moves twice.
	hot := boxOf(reqID)
	migReq := uint64(reqID + 1)
	for boxOf(migReq) != hot {
		migReq++
	}
	pending, err = tb.Master.Submit("wc", migReq, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	type metricsDoc struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	var before, m metricsDoc
	getJSON(t, base+"/metrics", &before)
	stop := tb.StartControl(t.Context(), 20*time.Millisecond, treeplan.ReplanPolicy{
		HotLoadUs: 30000, CooldownTicks: 1 << 20,
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, base+"/metrics", &m)
		if m.Counters["replan.migrated_requests"] > before.Counters["replan.migrated_requests"] {
			break
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatal("the control loop never migrated the pending request off its hot box")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if res := finishJob(t, tb, migReq, pending); res.Attempts < 1 {
		t.Fatalf("migrated job reports %d attempts, want >= 1", res.Attempts)
	}

	getJSON(t, base+"/metrics", &m)
	for _, want := range []string{
		"transport.frames_in", "transport.writev_calls", "transport.batch_frames",
		"box.frames_aggregated", "box.cutthrough_merges",
		"plan.replans", "plan.dead_boxes_skipped", "plan.slow_boxes_avoided",
		"replan.ticks", "replan.migrations", "replan.migrated_requests",
		"replan.cooldown_holds", "box.requests_cancelled", "shim.ended_notices",
	} {
		if _, ok := m.Counters[want]; !ok {
			t.Errorf("/metrics missing counter %q (got %d counters)", want, len(m.Counters))
		}
	}
	for _, want := range []string{"shim.partial_bytes", "box.flush_latency_us", "box.fanin_parts", "plan.compute_us", "transport.batch_size"} {
		if _, ok := m.Histograms[want]; !ok {
			t.Errorf("/metrics missing histogram %q (got %d histograms)", want, len(m.Histograms))
		}
	}
	for _, want := range []string{"replan.congested_boxes", "shim.retained_sends"} {
		if _, ok := m.Gauges[want]; !ok {
			t.Errorf("/metrics missing gauge %q", want)
		}
	}
	// Two jobs are fewer than a notice batch: their sends are still held.
	if m.Gauges["shim.retained_sends"] <= 0 {
		t.Errorf("shim.retained_sends = %d after two jobs, want them held", m.Gauges["shim.retained_sends"])
	}
	for _, name := range []string{"box.frames_aggregated", "box.merged_bytes", "replan.ticks", "replan.migrations"} {
		if m.Counters[name] == 0 {
			t.Errorf("%s is 0 after a completed job and a forced migration", name)
		}
	}
	// The batched write path must actually have been exercised: every
	// frame the jobs pushed went through a flusher's vectored write.
	if calls, frames := m.Counters["transport.writev_calls"], m.Counters["transport.batch_frames"]; calls == 0 || frames < calls {
		t.Errorf("transport.batch_frames = %d, transport.writev_calls = %d, want batch_frames >= writev_calls > 0", frames, calls)
	}

	// The migration span lands on the trace of the attempt it created.
	var traces struct {
		Active, Recent []struct {
			Req   uint64 `json:"req"`
			Spans []struct {
				Hop string `json:"hop"`
			} `json:"spans"`
		}
	}
	getJSON(t, base+"/traces", &traces)
	migrateSpan := false
	for _, tr := range append(traces.Recent, traces.Active...) {
		for _, s := range tr.Spans {
			if tr.Req == cluster.WireReq(migReq, 0, 1) && s.Hop == "migrate" {
				migrateSpan = true
			}
		}
	}
	if !migrateSpan {
		t.Error("/traces has no migrate span on the migrated request's trace")
	}
}

// TestMetricCatalogueIsRegistered holds DESIGN.md §11's metric catalogue
// to what non-test code registers through obs.C, obs.G and obs.H: every
// registered name has a row, every name a row gives is registered, and as
// the type the row gives. Both lists are written by hand, and a row naming
// nothing and a metric with no row have each gone unnoticed before.
func TestMetricCatalogueIsRegistered(t *testing.T) {
	kinds := map[string]string{"C": "counter", "G": "gauge", "H": "histogram"}
	call := regexp.MustCompile(`obs\.([CGH])\(("[^"]*")?`)
	registered := make(map[string]string)
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range call.FindAllStringSubmatch(string(src), -1) {
				if m[2] == "" {
					t.Errorf("%s registers a metric whose name is not a literal: %s", path, m[0])
					continue
				}
				name, _ := strconv.Unquote(m[2])
				if k, ok := registered[name]; ok && k != kinds[m[1]] {
					t.Errorf("%s is registered as a %s and a %s", name, k, kinds[m[1]])
				}
				registered[name] = kinds[m[1]]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(doc), "### Metric catalogue\n")
	table, _, _ = strings.Cut(table, "\n#")
	name := regexp.MustCompile("`([^`]+)`")
	catalogued := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.Contains(cells[1], "`") {
			continue // the header, the rule, the prose around the table
		}
		kind := strings.TrimSpace(cells[2])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			catalogued[m[1]] = true
			if got, ok := registered[m[1]]; !ok {
				t.Errorf("DESIGN.md §11 lists the %s %s, which nothing registers", kind, m[1])
			} else if got != kind {
				t.Errorf("DESIGN.md §11 lists %s as a %s; it is registered as a %s", m[1], kind, got)
			}
		}
	}
	for n, kind := range registered {
		if !catalogued[n] {
			t.Errorf("the %s %s is registered but has no row in DESIGN.md §11", kind, n)
		}
	}
	if len(registered) < 20 {
		t.Fatalf("found %d registered metrics, want every obs.C/G/H call in internal/ and cmd/", len(registered))
	}
}

// getJSON fetches url and decodes its body into v.
func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: malformed JSON: %v", url, err)
	}
}

func spanCount(tr obs.Trace, hop string) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Hop == hop {
			n++
		}
	}
	return n
}
