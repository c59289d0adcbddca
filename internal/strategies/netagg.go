package strategies

import (
	"fmt"
	"math"

	"netagg/internal/simnet"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
	"netagg/internal/workload"
)

// NetAgg is the paper's on-path aggregation strategy (§2.3, §3.1): each
// worker's partial results are redirected to the first agg box on the
// network path towards the master; boxes chain along the path, each
// aggregating the data of the workers beneath it, and the box nearest the
// master delivers the fully aggregated result. All ECMP decisions of one
// job use the same hash so its flows converge on the same boxes; with
// multiple boxes per switch, the job hash also selects the box (scale-out);
// with Trees > 1, every worker partitions its partial results across
// multiple aggregation trees that take different network paths (§3.1
// "Multiple aggregation trees per application").
type NetAgg struct {
	// Trees is the number of concurrent aggregation trees per job; 0 or 1
	// means a single tree.
	Trees int
	// Mode selects the reduction semantics; the zero value is the paper's
	// per-hop model.
	Mode ReduceMode
	// Planner chooses the agg box at each equipped switch (nil =
	// treeplan.OnPath, the paper's hash selection). The same planner
	// implementations drive the live fabric's shims, so planner
	// experiments run unchanged in simulation and testbed.
	Planner treeplan.Planner
	// Load is each box's load signal, which planners see bucketed as
	// Box.Load: the simulator has no monitor to measure it, so an
	// experiment states it. Nil means every box is idle.
	Load map[topology.NodeID]treeplan.LoadSignal
}

// Name implements Strategy.
func (n NetAgg) Name() string {
	if n.Trees > 1 {
		return fmt.Sprintf("netagg-%dtrees", n.Trees)
	}
	return "netagg"
}

// boxNode accumulates the per-job state of one agg box in one tree.
type boxNode struct {
	box       topology.NodeID
	inputs    []simnet.FlowID
	boxIns    []*boxNode      // upstream boxes feeding this one
	dataBits  float64         // original worker data arriving here directly
	next      topology.NodeID // downstream box, or the master
	nextIsBox bool
	emitted   bool
	out       simnet.FlowID
}

// AddJob implements Strategy.
func (n NetAgg) AddJob(net *simnet.Network, job *workload.Job, alpha float64) JobFlows {
	trees := n.Trees
	if trees < 1 {
		trees = 1
	}
	var jf JobFlows
	for tr := 0; tr < trees; tr++ {
		n.addTree(net, simTopo{topo: net.Topo.T, load: n.Load}, job, alpha, tr, trees, 0, &jf)
	}
	return jf
}

// addTree plans and emits the flows of one aggregation tree. view is the
// planner's topology (a congestion-marked view during dynamic-tree
// migration; the plain topology otherwise), startAt floors every flow's
// start time (non-zero for mid-run migration resends, where the workers
// replay their buffered partials from the current simulated time), and
// the boxes the tree routed through are returned in deterministic
// creation order so a dynamic strategy knows which jobs a congested box
// affects.
func (n NetAgg) addTree(net *simnet.Network, view treeplan.Topology, job *workload.Job, alpha float64, tree, trees int, startAt float64, jf *JobFlows) []topology.NodeID {
	topo := net.Topo.T
	h := jobHash(job.ID, tree)

	// The tree's box routes come from the control plane: the planner
	// walks each worker's path and picks this job's box at every
	// equipped switch. The job hash doubles as Request.Hash so the
	// planner's box choices stay aligned with the job's ECMP decisions.
	planner := n.Planner
	if planner == nil {
		planner = treeplan.OnPath{}
	}
	workers := make([]string, len(job.Workers))
	for i, w := range job.Workers {
		workers[i] = simNodeName(w)
	}
	planned := planner.Plan(view, treeplan.Request{
		Hash:    h,
		Master:  simNodeName(job.Master),
		Workers: workers,
	})

	nodes := make(map[topology.NodeID]*boxNode) // keyed by box
	var order []*boxNode                        // creation order: deterministic (follows job.Workers)
	getNode := func(box topology.NodeID) *boxNode {
		if bn, ok := nodes[box]; ok {
			return bn
		}
		bn := &boxNode{box: box, next: -1}
		nodes[box] = bn
		order = append(order, bn)
		return bn
	}

	for i, w := range job.Workers {
		bits := job.Bits[i] / float64(trees)
		start := math.Max(job.Delay[i], startAt)
		route := planned.Routes[workers[i]]
		var chain []topology.NodeID // boxes on the path, in order
		for _, b := range route {
			chain = append(chain, topology.NodeID(b.ID))
		}
		// The request hash h selects which boxes form the tree; the
		// *transport* of each worker's stream to its first box uses the
		// worker's own ECMP hash, so streams converging on one box still
		// spread over the equal-cost paths below it (§3.1 requires the data
		// to traverse the same agg boxes, not the same links).
		wh := workerHash(job.ID, i)
		if job.Delay[i] > 0 {
			// Straggler bypass (§3.1 "Handling stragglers"): boxes
			// aggregate the results that are available; a late worker's
			// data is sent directly to the master instead of stalling the
			// whole aggregation tree.
			chain = nil
		}
		if len(chain) == 0 {
			// No box on the path: the shim sends directly to the master.
			id := net.AddFlowOnPath(w, job.Master, wh, simnet.FlowSpec{
				Bits:  bits,
				Start: start,
				Class: simnet.ClassAggregation,
				Job:   job.ID,
				Final: true,
			})
			jf.All = append(jf.All, id)
			jf.Finals = append(jf.Finals, id)
			continue
		}
		// Worker flow to the first on-path box.
		first := getNode(chain[0])
		id := net.AddFlowOnPath(w, chain[0], wh, simnet.FlowSpec{
			Bits:  bits,
			Start: start,
			Class: simnet.ClassAggregation,
			Job:   job.ID,
		})
		jf.All = append(jf.All, id)
		first.inputs = append(first.inputs, id)
		first.dataBits += bits
		// Record the downstream chain. Paths of one job converge, so a box's
		// successor is the same on every worker path through it.
		for k, box := range chain {
			bn := getNode(box)
			var next topology.NodeID
			nextIsBox := false
			if k+1 < len(chain) {
				next = chain[k+1]
				nextIsBox = true
			} else {
				next = job.Master
			}
			if bn.next == -1 {
				bn.next = next
				bn.nextIsBox = nextIsBox
			} else if bn.next != next {
				panic(fmt.Sprintf("strategies: job %d box %s has diverging successors %d and %d",
					job.ID, topo.Node(box).Name, bn.next, next))
			}
		}
	}

	// Wire box-to-box dependencies. Iterate in creation order, not map
	// order: boxIns order determines flow creation order and the float
	// summation order of arriving bits, both of which must reproduce
	// bit-for-bit across runs.
	for _, bn := range order {
		if bn.nextIsBox {
			down := nodes[bn.next]
			down.boxIns = append(down.boxIns, bn)
		}
	}

	// Emit box output flows bottom-up. emit returns a pair of totals via
	// closure state: the raw worker data beneath the box (for the
	// of-original semantics) and the bits actually entering the box (for the
	// per-hop semantics); the output flow is sized from whichever the mode
	// selects.
	var emit func(bn *boxNode) (raw, arriving float64)
	emit = func(bn *boxNode) (float64, float64) {
		if bn.emitted {
			panic("strategies: aggregation graph has a cycle")
		}
		bn.emitted = true
		raw := bn.dataBits
		arriving := bn.dataBits
		inputs := append([]simnet.FlowID(nil), bn.inputs...)
		for _, up := range bn.boxIns {
			upRaw, _ := emitOnce(up, emit)
			raw += upRaw
			arriving += net.Sim.FlowSpecOf(up.out).Bits
			inputs = append(inputs, up.out)
		}
		streams := len(bn.inputs) + len(bn.boxIns)
		merged := arriving
		if n.Mode == ReduceOfOriginal {
			merged = raw
		}
		bits := aggOutput(alpha, streams, merged, arriving)
		bn.out = net.AddFlowOnPath(bn.box, bn.next, h, simnet.FlowSpec{
			Bits:   bits,
			Inputs: inputs,
			Start:  startAt,
			Class:  simnet.ClassAggregation,
			Job:    job.ID,
			Final:  !bn.nextIsBox,
		})
		jf.All = append(jf.All, bn.out)
		if !bn.nextIsBox {
			jf.Finals = append(jf.Finals, bn.out)
		}
		return raw, arriving
	}
	for _, bn := range order {
		if !bn.nextIsBox && !bn.emitted {
			emit(bn)
		}
	}
	// Every box must have been reached from a master-facing root.
	for _, bn := range order {
		if !bn.emitted {
			panic("strategies: orphaned agg box in aggregation tree")
		}
	}
	boxes := make([]topology.NodeID, len(order))
	for i, bn := range order {
		boxes[i] = bn.box
	}
	return boxes
}

// emitOnce guards against double emission when two boxes share an upstream
// (cannot happen with converging paths, but cheap to enforce).
func emitOnce(bn *boxNode, emit func(*boxNode) (float64, float64)) (float64, float64) {
	if bn.emitted {
		panic("strategies: box feeds two downstream boxes")
	}
	return emit(bn)
}
