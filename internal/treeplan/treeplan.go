// Package treeplan is the tree control plane: it decides, for one
// aggregation request, which agg boxes the partial results of each worker
// traverse on their way to the master (§3.1). The data plane — shims,
// boxes, the simulator — asks a Planner for a Tree and executes it; how
// the boxes are chosen is the planner's business alone, which is the seam
// load-aware planning (LoadAware over Box.Load, each box's measured load;
// DESIGN.md §14) and congestion-aware dynamic trees (Box.Slow, set from
// each box's Hysteresis; §16) plug into.
//
// Planning must be per-worker decomposable: a worker shim asks for its own
// route (Planner.Route) and must get the chain the master's tree
// (Planner.Plan) holds for it, because shims and masters coordinate purely
// through the hashed request identifier (§3.1: "The next agg box on-path
// is determined by hashing an application/request identifier"), never by
// exchanging plans. Both built-in planners — OnPath (the paper's pure
// hash) and LoadAware (rendezvous hashing weighted by Box.Load) — have this
// property by construction: each is a choice among the boxes at one
// switch, and Plan and Route are the same walk over it (see walk). A new
// planner must preserve it.
//
// The same Planner serves the live fabric and the simulator, so planner
// experiments run unchanged in both worlds. On the live fabric a
// cluster.Deployment implements Topology over hosts and deployed boxes and
// holds the one Planner its master and worker shims all plan with
// (Deployment.Plan, Deployment.Route); strategies.NetAgg adapts
// topology.Topology.
package treeplan

import (
	"time"

	"netagg/internal/topology"
)

// Box is one candidate aggregation box as the planner sees it.
type Box struct {
	// ID is the cluster-unique box identifier.
	ID uint64
	// Addr is the box's data listen address ("" in the simulator).
	Addr string
	// Switch names the switch the box is attached to.
	Switch string
	// Dead marks a box the failure monitor has declared failed; planners
	// must never route through a dead box.
	Dead bool
	// Slow marks a box the failure monitor has declared congested: planners
	// avoid it whenever the switch offers a non-slow alternative, but —
	// unlike Dead — may still route through it when it is the only box
	// standing, because a slow tree beats no tree.
	Slow bool
	// Load is the power-of-two bucket of the box's measured load
	// (LoadBucket; 0 = idle or never measured). LoadAware weights its
	// choice by it; OnPath ignores it.
	Load uint8
}

// Request identifies one aggregation tree to plan.
type Request struct {
	// Attempt is the recovery attempt being planned (0 = first try). No
	// planner chooses by it — replans change only by excluding boxes that
	// died or turned congested — it only feeds the plan.replans counter.
	Attempt int
	// Hash is the request/tree hash every consistent-planning decision
	// derives from, the one thing a planner knows of the request
	// identifier and the tree index (§3.1 "Multiple aggregation trees per
	// application"). NewRequest fills it with RequestHash; the simulator
	// supplies its own per-job hash so simulated ECMP and box choices
	// stay aligned with the rest of the simulation.
	Hash uint64
	// Master is the master host's name (the tree root's destination).
	Master string
	// Workers lists the worker hosts Plan builds the tree over. A worker
	// shim asks for its own chain with Route, which does not read it;
	// per-worker decomposability (see the package comment) makes both
	// views agree.
	Workers []string
}

// NewRequest builds a Request with the canonical live-fabric Hash.
func NewRequest(req uint64, tree, attempt int, master string, workers []string) Request {
	return Request{
		Attempt: attempt,
		Hash:    RequestHash(req, tree),
		Master:  master, Workers: workers,
	}
}

// RequestHash derives the live fabric's request/tree hash (the salt is
// fixed so every shim and master computes the same value independently).
func RequestHash(req uint64, tree int) uint64 {
	return topology.FlowHash(0xC4A1, req, uint64(tree)+1)
}

// Tree is one planned aggregation tree. Each tree is an independent
// wire-level request (see cluster.WireReq), so trees can safely share agg
// boxes — e.g. the box in the master's rack, which every tree's chain
// ends at (§3.1).
type Tree struct {
	// Routes[worker] is the box chain the worker's partial results
	// traverse, ordered from first hop to chain root (an empty chain
	// means: send directly to the master).
	Routes map[string][]Box
	// Expect[box ID] counts the distinct direct sources (workers and
	// upstream boxes) the box must hear an end-of-stream from (§3.2.2
	// "Partial result collection").
	Expect map[uint64]int
	// Finals counts the sources that deliver results to the master shim
	// for this tree: distinct chain roots plus workers with no on-path
	// box.
	Finals int
}

// TotalFinals counts result deliveries the master waits for across trees.
func TotalFinals(trees []Tree) int {
	n := 0
	for i := range trees {
		n += trees[i].Finals
	}
	return n
}

// RouteAddrs converts a box chain plus the master result address into the
// wire route carried by THello frames.
func RouteAddrs(chain []Box, masterAddr string) []string {
	out := make([]string, 0, len(chain)+1)
	for _, b := range chain {
		out = append(out, b.Addr)
	}
	return append(out, masterAddr)
}

// Topology is the planner's read-only view of the network: which switches
// a worker-to-master path crosses and which boxes each switch offers.
// cluster.Deployment implements it for the live fabric; the simulator
// adapts topology.Topology.
type Topology interface {
	// PathSwitches lists the switches on the up-down path from a worker
	// to the master, in traversal order. Implementations with equal-cost
	// multipath use hash to pin one path; single-path fabrics ignore it.
	PathSwitches(worker, master string, hash uint64) []string
	// BoxesAt lists the boxes attached to a switch in deployment order,
	// including dead ones (planners filter on Box.Dead so they can count
	// what they skipped).
	BoxesAt(sw string) []Box
}

// Planner plans one aggregation tree over a topology. Implementations
// must be pure with respect to (topo, req) — the boxes' Dead, Slow and
// Load included — deterministic, and per-worker decomposable (see the
// package comment); they are called concurrently from many shims.
type Planner interface {
	// Plan computes the request's aggregation tree: the master's view.
	Plan(topo Topology, req Request) Tree
	// Route computes one worker's box chain — Plan(topo, req).Routes[worker]
	// for any req.Workers that lists the worker — without building the
	// tree around it: the worker shim's view. req.Workers is not read.
	Route(topo Topology, req Request, worker string) []Box
}

// walk is the planner-independent skeleton of OnPath and LoadAware: one
// worker's chain is a walk along its path that asks pick to choose among
// the live boxes at every equipped switch (route), and a tree is the
// bookkeeping over the workers' chains (tree). Both built-in planners
// answer Plan and Route from the same route, so for them per-worker
// decomposability holds by construction; a planner whose choice for one
// worker depends on the others cannot be written as a pick, and has to
// keep the package comment's contract by other means.
type walk struct {
	topo Topology
	req  Request
	// pick chooses among the candidate boxes (never empty) at one switch.
	pick func(alive []Box, hash uint64) Box

	alive                    []Box // filtered candidates, reused across switches
	deadSkipped, slowAvoided int   // for the planner to report
}

// route walks one worker's path to the master.
//
// Slow boxes are excluded from the candidate set only when the switch
// offers a non-slow alternative — a switch whose every live box is
// congested still gets its best-effort box. Because the filter is
// deterministic and runs before pick, congestion marks shift every
// shim's choice identically.
func (w *walk) route(worker string) []Box {
	var chain []Box
	for _, sw := range w.topo.PathSwitches(worker, w.req.Master, w.req.Hash) {
		boxes := w.topo.BoxesAt(sw)
		dead, slow := 0, 0
		for _, b := range boxes {
			if b.Dead {
				dead++
			} else if b.Slow {
				slow++
			}
		}
		w.deadSkipped += dead
		live := len(boxes) - dead
		if live == 0 {
			continue
		}
		avoid := slow > 0 && slow < live
		if avoid {
			w.slowAvoided += slow
		}
		// A switch with nothing to leave out — the usual case — offers
		// its boxes as they are.
		alive := boxes
		if dead > 0 || avoid {
			alive = w.alive[:0]
			for _, b := range boxes {
				if !b.Dead && !(avoid && b.Slow) {
					alive = append(alive, b)
				}
			}
			w.alive = alive
		}
		chain = append(chain, w.pick(alive, w.req.Hash))
	}
	return chain
}

// tree routes every worker of the request and derives the tree's shape
// from the chains: expected fan-in per box, finals at the master.
func (w *walk) tree() Tree {
	t := Tree{
		Routes: make(map[string][]Box, len(w.req.Workers)),
		Expect: make(map[uint64]int),
	}
	type edge struct{ up, down uint64 }
	boxEdges := make(map[edge]bool)
	roots := make(map[uint64]bool)
	for _, wname := range w.req.Workers {
		chain := w.route(wname)
		t.Routes[wname] = chain
		if len(chain) == 0 {
			t.Finals++
			continue
		}
		t.Expect[chain[0].ID]++ // one direct worker stream
		for i := 0; i+1 < len(chain); i++ {
			boxEdges[edge{up: chain[i].ID, down: chain[i+1].ID}] = true
		}
		roots[chain[len(chain)-1].ID] = true
	}
	for e := range boxEdges {
		t.Expect[e.down]++
	}
	t.Finals += len(roots)
	return t
}

// planWith and routeWith are Plan and Route for a planner that is a pick:
// the walk, timed and reported.
func planWith(topo Topology, req Request, pick func([]Box, uint64) Box) Tree {
	start := time.Now()
	w := walk{topo: topo, req: req, pick: pick}
	t := w.tree()
	observePlan(start, req, w.deadSkipped, w.slowAvoided)
	return t
}

func routeWith(topo Topology, req Request, worker string, pick func([]Box, uint64) Box) []Box {
	start := time.Now()
	w := walk{topo: topo, req: req, pick: pick}
	chain := w.route(worker)
	observePlan(start, req, w.deadSkipped, w.slowAvoided)
	return chain
}
