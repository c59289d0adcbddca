package treeplan_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netagg/internal/cluster"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
)

// randDeployment builds a random cluster deployment: 1-3 pods of 1-3 racks
// with 1-4 worker hosts each plus a master, boxes on a random subset of
// switches (0-3 per switch), and a random subset of boxes marked dead.
// Returns the deployment, the worker names, and the live box count.
func randDeployment(rn *rand.Rand) (*cluster.Deployment, []string) {
	d := cluster.NewDeployment(nil)
	d.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	var workers []string
	pods := 1 + rn.Intn(3)
	rack := 0
	var switches []string
	for p := 0; p < pods; p++ {
		racks := 1 + rn.Intn(3)
		switches = append(switches, fmt.Sprintf("agg:%d", p))
		for r := 0; r < racks; r++ {
			switches = append(switches, fmt.Sprintf("tor:%d", rack))
			for i := 0; i < 1+rn.Intn(4); i++ {
				name := fmt.Sprintf("p%dr%dh%d", p, rack, i)
				d.AddHost(cluster.Host{Name: name, Rack: rack, Pod: p})
				workers = append(workers, name)
			}
			rack++
		}
	}
	switches = append(switches, "core")
	id := uint64(1) << 32
	for _, sw := range switches {
		for k := rn.Intn(4); k > 0; k-- {
			d.AddBox(cluster.BoxInfo{ID: id, Addr: fmt.Sprintf("10.0.0.%d:1", id>>32), Switch: sw})
			if rn.Intn(4) == 0 {
				d.MarkDead(id)
			}
			id += 1 << 32
		}
	}
	return d, workers
}

// randWorkers picks a random non-empty worker subset in deployment order.
func randWorkers(rn *rand.Rand, all []string) []string {
	var out []string
	for _, w := range all {
		if rn.Intn(3) > 0 {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = append(out, all[rn.Intn(len(all))])
	}
	return out
}

// oracleTree replays the pre-treeplan cluster.Deployment.Plan algorithm
// (git history: Chain + Plan) on the public deployment API and returns the
// per-worker box ID chains plus the expected fan-in and master final
// counts. OnPath must reproduce it exactly.
func oracleTree(d *cluster.Deployment, req uint64, tree int, master string, workers []string) (map[string][]uint64, map[uint64]int, int) {
	h := topology.FlowHash(0xC4A1, req, uint64(tree)+1)
	routes := make(map[string][]uint64)
	expect := make(map[uint64]int)
	finals := 0
	type edge struct{ up, down uint64 }
	boxEdges := make(map[edge]bool)
	roots := make(map[uint64]bool)
	for _, wname := range workers {
		var chain []uint64
		for _, sw := range d.PathSwitches(wname, master, h) {
			var alive []uint64
			for _, b := range d.BoxesAt(sw) {
				if !b.Dead {
					alive = append(alive, b.ID)
				}
			}
			if len(alive) == 0 {
				continue
			}
			chain = append(chain, alive[h%uint64(len(alive))])
		}
		routes[wname] = chain
		if len(chain) == 0 {
			finals++
			continue
		}
		expect[chain[0]]++
		for i := 0; i+1 < len(chain); i++ {
			boxEdges[edge{chain[i], chain[i+1]}] = true
		}
		roots[chain[len(chain)-1]] = true
	}
	for e := range boxEdges {
		expect[e.down]++
	}
	return routes, expect, finals + len(roots)
}

// routeIDs projects a planned tree's routes onto box IDs for comparison.
func routeIDs(t treeplan.Tree) map[string][]uint64 {
	out := make(map[string][]uint64, len(t.Routes))
	for w, chain := range t.Routes {
		ids := make([]uint64, 0, len(chain))
		for _, b := range chain {
			ids = append(ids, b.ID)
		}
		out[w] = ids
	}
	return out
}

// TestOnPathMatchesLegacyPlanOracle pins the refactor's behaviour
// contract: over randomized deployments, dead sets, and requests, OnPath
// plans exactly the trees the old cluster.Deployment.Plan computed.
func TestOnPathMatchesLegacyPlanOracle(t *testing.T) {
	rn := rand.New(rand.NewSource(0xC4A1))
	for trial := 0; trial < 200; trial++ {
		d, all := randDeployment(rn)
		workers := randWorkers(rn, all)
		req := rn.Uint64() >> 8
		tree := rn.Intn(4)
		wantRoutes, wantExpect, wantFinals := oracleTree(d, req, tree, "master", workers)

		got := treeplan.OnPath{}.Plan(d, treeplan.NewRequest(req, tree, 0, "master", workers))
		gotRoutes := routeIDs(got)
		for w, want := range wantRoutes {
			if gotv := gotRoutes[w]; !reflect.DeepEqual(append([]uint64{}, gotv...), append([]uint64{}, want...)) {
				t.Fatalf("trial %d: worker %s route = %v, oracle %v", trial, w, gotv, want)
			}
		}
		if len(gotRoutes) != len(wantRoutes) {
			t.Fatalf("trial %d: %d routes, oracle %d", trial, len(gotRoutes), len(wantRoutes))
		}
		if !reflect.DeepEqual(got.Expect, wantExpect) {
			t.Fatalf("trial %d: Expect = %v, oracle %v", trial, got.Expect, wantExpect)
		}
		if got.Finals != wantFinals {
			t.Fatalf("trial %d: Finals = %d, oracle %d", trial, got.Finals, wantFinals)
		}
	}
}

// planners returns the implementations the property tests quantify over,
// the paper's hash planner and LoadAware, after giving a random half of
// d's boxes a random load so LoadAware's weights differ.
func planners(rn *rand.Rand, d *cluster.Deployment) []treeplan.Planner {
	for _, b := range d.Boxes() {
		if rn.Intn(2) == 0 {
			d.ObserveLoad(b.ID, rn.Intn(1024), int64(rn.Intn(100000)))
		}
	}
	return []treeplan.Planner{treeplan.OnPath{}, treeplan.LoadAware{}}
}

// TestPlanConsistencyProperties checks, for every planner over randomized
// deployments, the tree accounting invariants the shims rely on: Expect
// totals equal the direct worker streams plus the distinct box-to-box
// edges, Finals equal the distinct chain roots plus the box-less workers,
// routes contain only live boxes, and planning is deterministic.
func TestPlanConsistencyProperties(t *testing.T) {
	rn := rand.New(rand.NewSource(0x7EE))
	for trial := 0; trial < 200; trial++ {
		d, all := randDeployment(rn)
		workers := randWorkers(rn, all)
		req := treeplan.NewRequest(rn.Uint64()>>8, rn.Intn(4), rn.Intn(3), "master", workers)
		for _, p := range planners(rn, d) {
			tree := p.Plan(d, req)
			if len(tree.Routes) != len(workers) {
				t.Fatalf("trial %d %T: %d routes for %d workers", trial, p, len(tree.Routes), len(workers))
			}

			type edge struct{ up, down uint64 }
			edges := make(map[edge]bool)
			roots := make(map[uint64]bool)
			directStreams, boxless := 0, 0
			for _, w := range workers {
				chain, ok := tree.Routes[w]
				if !ok {
					t.Fatalf("trial %d %T: no route for worker %s", trial, p, w)
				}
				for _, b := range chain {
					if b.Dead {
						t.Fatalf("trial %d %T: dead box %d planned for %s", trial, p, b.ID, w)
					}
				}
				if len(chain) == 0 {
					boxless++
					continue
				}
				directStreams++
				for i := 0; i+1 < len(chain); i++ {
					edges[edge{chain[i].ID, chain[i+1].ID}] = true
				}
				roots[chain[len(chain)-1].ID] = true
			}
			wantExpect := directStreams + len(edges)
			gotExpect := 0
			for _, n := range tree.Expect {
				gotExpect += n
			}
			if gotExpect != wantExpect {
				t.Fatalf("trial %d %T: Expect total %d, want %d direct + %d edges", trial, p, gotExpect, directStreams, len(edges))
			}
			if want := len(roots) + boxless; tree.Finals != want {
				t.Fatalf("trial %d %T: Finals %d, want %d roots + %d boxless", trial, p, tree.Finals, len(roots), boxless)
			}
			if again := p.Plan(d, req); !reflect.DeepEqual(tree, again) {
				t.Fatalf("trial %d %T: replanning produced a different tree", trial, p)
			}
		}
	}
}

// TestPerWorkerDecomposability pins the contract worker shims depend on
// (§3.1, package doc), under dead and congested marks and any attempt: the
// route a worker asks for, and the route of a tree planned for that worker
// alone, are exactly the chain the master's full tree holds for it.
func TestPerWorkerDecomposability(t *testing.T) {
	rn := rand.New(rand.NewSource(0xDEC0))
	for trial := 0; trial < 200; trial++ {
		d, all := randDeployment(rn)
		for _, b := range d.Boxes() {
			d.MarkCongested(b.ID, rn.Intn(3) == 0)
		}
		workers := randWorkers(rn, all)
		req := treeplan.NewRequest(rn.Uint64()>>8, rn.Intn(4), rn.Intn(3), "master", workers)
		for _, p := range planners(rn, d) {
			full := p.Plan(d, req)
			for _, w := range workers {
				solo := req
				solo.Workers = []string{w}
				if got := p.Plan(d, solo).Routes[w]; !reflect.DeepEqual(got, full.Routes[w]) {
					t.Fatalf("trial %d %T: worker %s solo route %v != master route %v",
						trial, p, w, got, full.Routes[w])
				}
				solo.Workers = nil
				if got := p.Route(d, solo, w); !reflect.DeepEqual(got, full.Routes[w]) {
					t.Fatalf("trial %d %T: worker %s asked for route %v, the master's tree holds %v",
						trial, p, w, got, full.Routes[w])
				}
			}
		}
	}
}

// TestLoadAwareSteersOffHotBox checks the planner's purpose: an idle fleet
// splits requests roughly evenly, and once one of two boxes at a switch
// carries load, the hot box's share of picks collapses.
func TestLoadAwareSteersOffHotBox(t *testing.T) {
	d := cluster.NewDeployment(nil)
	d.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	d.AddHost(cluster.Host{Name: "w", Rack: 0, Pod: 0})
	hotID, coldID := uint64(1)<<32, uint64(2)<<32
	d.AddBox(cluster.BoxInfo{ID: hotID, Addr: "10.0.0.1:1", Switch: "tor:0"})
	d.AddBox(cluster.BoxInfo{ID: coldID, Addr: "10.0.0.2:1", Switch: "tor:0"})

	count := func(p treeplan.Planner) (hot, cold int) {
		for req := uint64(0); req < 400; req++ {
			tree := p.Plan(d, treeplan.NewRequest(req, 0, 0, "master", []string{"w"}))
			switch tree.Routes["w"][0].ID {
			case hotID:
				hot++
			case coldID:
				cold++
			}
		}
		return
	}

	idleHot, idleCold := count(treeplan.LoadAware{})
	if idleHot < 100 || idleCold < 100 {
		t.Fatalf("idle fleet: picks %d/%d, want a roughly even split", idleHot, idleCold)
	}
	d.ObserveLoad(hotID, 256, 0)
	hot, cold := count(treeplan.LoadAware{})
	if hot+cold != 400 || hot > 60 {
		t.Fatalf("loaded fleet: hot box picked %d/400 times (cold %d), want a collapsed share", hot, cold)
	}
}

// TestLoadUsSaturates pins the load arithmetic: an ordinary signal sums
// its parts, and one whose sum overflows reads as the hottest load, in
// the top bucket. cluster's TestLoadEchoCannotWrapToIdle feeds it the
// overflowing queue depths a heartbeat echo can carry.
func TestLoadUsSaturates(t *testing.T) {
	for _, c := range []struct {
		sig    treeplan.LoadSignal
		load   int64
		bucket uint8
	}{
		{treeplan.LoadSignal{}, 0, 0},
		{treeplan.LoadSignal{QueueDepth: 3, FlushUs: 40, RTTUs: 5}, 3045, 12},
		{treeplan.LoadSignal{FlushUs: math.MaxInt64, RTTUs: 1}, math.MaxInt64, 63},
	} {
		if got := treeplan.LoadUs(c.sig); got != c.load {
			t.Errorf("LoadUs(%+v) = %d, want %d", c.sig, got, c.load)
		}
		if got := treeplan.LoadBucket(c.sig); got != c.bucket {
			t.Errorf("LoadBucket(%+v) = %d, want %d", c.sig, got, c.bucket)
		}
	}
}

// TestRouteAddrs covers the wire-format helper the worker shims use.
func TestRouteAddrs(t *testing.T) {
	chain := []treeplan.Box{{ID: 1, Addr: "a:1"}, {ID: 2, Addr: "b:2"}}
	got := treeplan.RouteAddrs(chain, "m:9")
	if !reflect.DeepEqual(got, []string{"a:1", "b:2", "m:9"}) {
		t.Fatalf("RouteAddrs = %v", got)
	}
	if got := treeplan.RouteAddrs(nil, "m:9"); !reflect.DeepEqual(got, []string{"m:9"}) {
		t.Fatalf("RouteAddrs(nil) = %v", got)
	}
}

// TestTotalFinals covers the multi-tree fan-in helper the master uses.
func TestTotalFinals(t *testing.T) {
	trees := []treeplan.Tree{{Finals: 2}, {Finals: 0}, {Finals: 3}}
	if got := treeplan.TotalFinals(trees); got != 5 {
		t.Fatalf("TotalFinals = %d, want 5", got)
	}
}
