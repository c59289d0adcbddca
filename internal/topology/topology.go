// Package topology models the data centre network NetAgg is evaluated on: a
// three-tier, multi-rooted Clos topology (servers, top-of-rack switches,
// aggregation switches, core switches) modelled after scalable DC
// architectures (VL2, fat-tree), with configurable link capacities and
// over-subscription at the ToR tier, ECMP multi-path routing between
// servers, and agg boxes attached to any subset of switches via
// high-bandwidth links (§2.4, §4.1 of the paper).
//
// Capacities are expressed in bits per second throughout.
package topology

import (
	"fmt"
	"hash/fnv"
)

// NodeKind distinguishes the tiers of the topology.
type NodeKind int

const (
	// KindServer is an edge server (worker, master, or client host).
	KindServer NodeKind = iota
	// KindToR is a top-of-rack switch.
	KindToR
	// KindAgg is an aggregation-tier switch.
	KindAgg
	// KindCore is a core-tier switch.
	KindCore
	// KindAggBox is a NetAgg middlebox attached to a switch.
	KindAggBox
)

// String returns a short tier name.
func (k NodeKind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	case KindAggBox:
		return "aggbox"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NodeID identifies a node in a Topology.
type NodeID int

// LinkID identifies a directed link in a Topology.
type LinkID int

// Node is a server, switch, or agg box.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Rack is the rack index for servers and ToRs, -1 otherwise.
	Rack int
	// Pod is the pod index for servers, ToRs and aggregation switches,
	// -1 for core switches and anything outside a pod.
	Pod int
	// Attached is, for agg boxes, the switch the box hangs off; -1 otherwise.
	Attached NodeID
	// ProcRate is, for agg boxes, the maximum aggregation processing rate R
	// in bits per second (§2.4); 0 otherwise.
	ProcRate float64
}

// Link is a directed link with a capacity. Every physical cable appears as
// two Links, one per direction, so inbound and outbound contention are
// tracked separately as they are in a real switched network.
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity float64 // bits per second
}

// Topology is an immutable-after-build network graph.
type Topology struct {
	nodes []Node
	links []Link

	out       map[NodeID][]LinkID
	linkIndex map[[2]NodeID]LinkID

	servers []NodeID
	tors    []NodeID
	aggs    []NodeID
	cores   []NodeID
	boxes   []NodeID

	// serverToR maps each server to its ToR.
	serverToR map[NodeID]NodeID
	// boxesAt maps a switch to the agg boxes attached to it.
	boxesAt map[NodeID][]NodeID
	// aggsByPod maps a pod index to its aggregation switches.
	aggsByPod map[int][]NodeID
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		out:       make(map[NodeID][]LinkID),
		linkIndex: make(map[[2]NodeID]LinkID),
		serverToR: make(map[NodeID]NodeID),
		boxesAt:   make(map[NodeID][]NodeID),
		aggsByPod: make(map[int][]NodeID),
	}
}

// AddNode adds a node and returns its ID.
func (t *Topology) AddNode(kind NodeKind, name string, rack, pod int) NodeID {
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Kind: kind, Name: name, Rack: rack, Pod: pod, Attached: -1})
	switch kind {
	case KindServer:
		t.servers = append(t.servers, id)
	case KindToR:
		t.tors = append(t.tors, id)
	case KindAgg:
		t.aggs = append(t.aggs, id)
		t.aggsByPod[pod] = append(t.aggsByPod[pod], id)
	case KindCore:
		t.cores = append(t.cores, id)
	case KindAggBox:
		t.boxes = append(t.boxes, id)
	}
	return id
}

// AddDuplex adds a pair of directed links (a→b and b→a) with the given
// capacity per direction.
func (t *Topology) AddDuplex(a, b NodeID, capacity float64) {
	t.addLink(a, b, capacity)
	t.addLink(b, a, capacity)
}

func (t *Topology) addLink(from, to NodeID, capacity float64) LinkID {
	if capacity <= 0 {
		panic(fmt.Sprintf("topology: link %d->%d requires capacity > 0", from, to))
	}
	key := [2]NodeID{from, to}
	if _, dup := t.linkIndex[key]; dup {
		panic(fmt.Sprintf("topology: duplicate link %d->%d", from, to))
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	t.out[from] = append(t.out[from], id)
	t.linkIndex[key] = id
	return id
}

// LinkBetween returns the directed link from a to b.
func (t *Topology) LinkBetween(a, b NodeID) (LinkID, bool) {
	id, ok := t.linkIndex[[2]NodeID{a, b}]
	return id, ok
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[int(id)] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[int(id)] }

// NumLinks reports the number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Servers returns the server node IDs in creation order.
func (t *Topology) Servers() []NodeID { return t.servers }

// ToRs returns the top-of-rack switch IDs.
func (t *Topology) ToRs() []NodeID { return t.tors }

// AggSwitches returns the aggregation-tier switch IDs.
func (t *Topology) AggSwitches() []NodeID { return t.aggs }

// CoreSwitches returns the core-tier switch IDs.
func (t *Topology) CoreSwitches() []NodeID { return t.cores }

// AggBoxes returns the agg box node IDs.
func (t *Topology) AggBoxes() []NodeID { return t.boxes }

// ToROf returns the top-of-rack switch of a server.
func (t *Topology) ToROf(server NodeID) NodeID {
	tor, ok := t.serverToR[server]
	if !ok {
		panic(fmt.Sprintf("topology: node %d is not a wired server", server))
	}
	return tor
}

// BoxesAt returns the agg boxes attached to a switch, in attachment order.
func (t *Topology) BoxesAt(sw NodeID) []NodeID { return t.boxesAt[sw] }

// wireServer records the server→ToR association; used by builders.
func (t *Topology) wireServer(server, tor NodeID, capacity float64) {
	t.AddDuplex(server, tor, capacity)
	t.serverToR[server] = tor
}

// AttachAggBox attaches a NetAgg middlebox to a switch with a duplex link of
// the given capacity and the given processing rate R. It returns the box's
// node ID. Multiple boxes may be attached to one switch (scale-out, §3.1).
func (t *Topology) AttachAggBox(sw NodeID, linkCapacity, procRate float64) NodeID {
	n := t.Node(sw)
	if n.Kind != KindToR && n.Kind != KindAgg && n.Kind != KindCore {
		panic(fmt.Sprintf("topology: agg box must attach to a switch, got %s", n.Kind))
	}
	idx := len(t.boxesAt[sw])
	id := t.AddNode(KindAggBox, fmt.Sprintf("box-%s-%d", n.Name, idx), n.Rack, n.Pod)
	t.nodes[int(id)].Attached = sw
	t.nodes[int(id)].ProcRate = procRate
	t.AddDuplex(id, sw, linkCapacity)
	t.boxesAt[sw] = append(t.boxesAt[sw], id)
	return id
}

// FlowHash deterministically hashes flow identifiers for ECMP path selection
// and aggregation-tree assignment. It matches the paper's use of hashing
// application/request identifiers (§3.1).
func FlowHash(parts ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			buf[i] = byte(p >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
