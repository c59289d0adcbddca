// Package cluster holds the NetAgg deployment state shared by shim layers
// and agg boxes: which hosts exist and where they sit in the physical
// topology, which switches have agg boxes attached, which boxes are
// currently alive (§3.1 "Handling failures"), and the one planner that
// every shim of the deployment plans its aggregation trees with. How a
// planner chooses boxes lives in internal/treeplan; Deployment implements
// treeplan.Topology and plans over itself (Plan, Route), so a master and
// its workers cannot disagree on the planner. It also owns the wire-level
// request encoding (WireReq) that keeps each (tree, attempt) an
// independent aggregation at the boxes.
package cluster

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"netagg/internal/treeplan"
)

// Host is a server's position in the testbed topology.
type Host struct {
	// Name is the unique host name.
	Name string
	// Rack locates the host; hosts in the same rack share a ToR switch.
	Rack int
	// Pod locates the rack; racks in a pod share an aggregation switch.
	Pod int
}

// UpPath lists the switch identifiers from the host towards the core tier.
func (h Host) UpPath() []string {
	return []string{
		fmt.Sprintf("tor:%d", h.Rack),
		fmt.Sprintf("agg:%d", h.Pod),
		"core",
	}
}

// BoxInfo describes one deployed agg box.
type BoxInfo struct {
	// ID is the cluster-unique box identifier (≥ 1<<32 by convention, so it
	// never collides with worker indices on the wire).
	ID uint64
	// Addr is the box's data listen address.
	Addr string
	// Switch is the switch the box is attached to ("tor:2", "agg:0",
	// "core").
	Switch string
	// LastSeen is when the failure monitor last received a heartbeat
	// echo from the box (zero until the first echo). Together with the
	// monitor's interval and miss threshold it bounds failure-detection
	// latency (§3.1): a box declared dead was last healthy at LastSeen,
	// and detection happens within deadAfter×interval + interval of it.
	LastSeen time.Time
}

// boxState is everything the deployment knows about one box: where it is
// (info, whose LastSeen the failure monitor keeps current), whether plans
// may use it, and the load it last reported.
type boxState struct {
	info      BoxInfo
	dead      bool
	congested bool
	// load is the smoothed heartbeat RTT plus the queue depth and flush
	// latency of the box's last echo, all zero until a monitor reports.
	load treeplan.LoadSignal
}

// plannerBox is the record as a planner sees it.
func (s *boxState) plannerBox() treeplan.Box {
	return treeplan.Box{
		ID: s.info.ID, Addr: s.info.Addr, Switch: s.info.Switch,
		Dead: s.dead, Slow: s.congested, Load: treeplan.LoadBucket(s.load),
	}
}

// hostState is a registered host and its UpPath, named once: every plan
// walks it for every worker.
type hostState struct {
	Host
	up []string
}

// Deployment is the cluster configuration: hosts, boxes, liveness and
// the planner. It is safe for concurrent use.
type Deployment struct {
	planner treeplan.Planner

	mu      sync.RWMutex
	hosts   map[string]hostState
	control map[string]string      // host name → worker shim control address
	results map[string]string      // host name → master shim result address
	boxes   map[uint64]*boxState   // box id → its one record
	at      map[string][]*boxState // switch → its boxes, in deployment order
}

// NewDeployment returns an empty deployment whose shims all plan with
// planner (nil = treeplan.OnPath, the paper's hash-on-path planner).
func NewDeployment(planner treeplan.Planner) *Deployment {
	if planner == nil {
		planner = treeplan.OnPath{}
	}
	return &Deployment{
		planner: planner,
		hosts:   make(map[string]hostState),
		control: make(map[string]string),
		results: make(map[string]string),
		boxes:   make(map[uint64]*boxState),
		at:      make(map[string][]*boxState),
	}
}

// AddHost registers a server.
func (d *Deployment) AddHost(h Host) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.hosts[h.Name]; dup {
		panic(fmt.Sprintf("cluster: duplicate host %q", h.Name))
	}
	d.hosts[h.Name] = hostState{Host: h, up: h.UpPath()}
}

// Host looks a server up by name.
func (d *Deployment) Host(name string) (Host, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	h, ok := d.hosts[name]
	return h.Host, ok
}

// SetControlAddr records the control address of a host's worker shim, used
// for failure/straggler redirection (§3.1).
func (d *Deployment) SetControlAddr(host, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.control[host] = addr
}

// ControlAddr returns a host's worker shim control address.
func (d *Deployment) ControlAddr(host string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a, ok := d.control[host]
	return a, ok
}

// SetResultAddr records where a master host's shim receives aggregated
// results; worker shims and agg boxes terminate routes there.
func (d *Deployment) SetResultAddr(host, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.results[host] = addr
}

// ResultAddr returns a master host's result address.
func (d *Deployment) ResultAddr(host string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a, ok := d.results[host]
	return a, ok
}

// AddBox attaches an agg box to a switch. Multiple boxes per switch scale
// the switch's aggregation capacity out (§3.1).
func (d *Deployment) AddBox(b BoxInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.boxes[b.ID]; dup {
		panic(fmt.Sprintf("cluster: duplicate box id %d", b.ID))
	}
	s := &boxState{info: b}
	d.boxes[b.ID] = s
	d.at[b.Switch] = append(d.at[b.Switch], s)
}

// read returns a copy of a box's record; ok is false, and the record
// zero, for an id that was never deployed.
func (d *Deployment) read(id uint64) (boxState, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if s, ok := d.boxes[id]; ok {
		return *s, true
	}
	return boxState{}, false
}

// update applies fn to a box's record; an id that was never deployed has
// no record to update.
func (d *Deployment) update(id uint64, fn func(*boxState)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.boxes[id]; ok {
		fn(s)
	}
}

// Box returns a box by ID; LastSeen is the monitor's last heartbeat echo.
func (d *Deployment) Box(id uint64) (BoxInfo, bool) {
	s, ok := d.read(id)
	return s.info, ok
}

// Boxes lists every deployed box, ordered by ID; LastSeen is the
// monitor's last heartbeat echo.
func (d *Deployment) Boxes() []BoxInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]BoxInfo, 0, len(d.boxes))
	for _, s := range d.boxes {
		out = append(out, s.info)
	}
	slices.SortFunc(out, func(a, b BoxInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// MarkSeen records a successful heartbeat from a box (the failure
// monitor calls it), fixing the gap where a box could be declared dead
// without any record of when it was last healthy.
func (d *Deployment) MarkSeen(id uint64) {
	d.update(id, func(s *boxState) { s.info.LastSeen = time.Now() })
}

// LastSeen returns when the box last answered a heartbeat (zero time if
// never, or if no monitor is running).
func (d *Deployment) LastSeen(id uint64) time.Time {
	s, _ := d.read(id)
	return s.info.LastSeen
}

// MarkDead removes a box from future plans (failure handling, §3.1).
func (d *Deployment) MarkDead(id uint64) {
	d.update(id, func(s *boxState) { s.dead = true })
}

// MarkAlive restores a box.
func (d *Deployment) MarkAlive(id uint64) {
	d.update(id, func(s *boxState) { s.dead = false })
}

// Dead reports whether a box has been marked failed.
func (d *Deployment) Dead(id uint64) bool {
	s, _ := d.read(id)
	return s.dead
}

// MarkCongested flips a box's congestion flag (the failure monitor calls
// it as the box crosses the hysteresis thresholds). Planners see the flag as
// treeplan.Box.Slow: congested boxes are avoided when the switch has an
// alternative, but — unlike dead boxes — stay eligible as a last resort.
func (d *Deployment) MarkCongested(id uint64, congested bool) {
	d.update(id, func(s *boxState) { s.congested = congested })
}

// ObserveLoad records a box's self-reported load signal — scheduler
// queue depth and flush-latency EWMA — delivered in its heartbeat echo
// (wire.DecodeLoad). The failure monitor calls it; together with the
// RTT EWMA it is the load the monitor scores and planners see as
// treeplan.Box.Load.
func (d *Deployment) ObserveLoad(id uint64, queueDepth int, flushUs int64) {
	d.update(id, func(s *boxState) {
		s.load.QueueDepth, s.load.FlushUs = int64(queueDepth), flushUs
	})
}

// observeRTT folds one heartbeat round-trip sample into the box's
// smoothed RTT (EWMA, ⅞ old + ⅛ new), the load's RTTUs. The failure
// monitor calls it.
func (d *Deployment) observeRTT(id uint64, rtt time.Duration) {
	d.update(id, func(s *boxState) {
		us := rtt.Microseconds()
		if s.load.RTTUs != 0 { // the first sample seeds the average
			us = (s.load.RTTUs*7 + us) / 8
		}
		s.load.RTTUs = us
	})
}

// upDown joins two hosts' up-paths where they first meet: up the worker's
// side to the lowest tier shared with the master, then down the master's
// side.
func upDown(wu, mu []string) []string {
	meet := len(wu) - 1
	for i := range wu {
		if wu[i] == mu[i] {
			meet = i
			break
		}
	}
	path := append(make([]string, 0, 2*meet+1), wu[:meet+1]...)
	for i := meet - 1; i >= 0; i-- {
		path = append(path, mu[i])
	}
	return path
}

// The Deployment is the live fabric's treeplan.Topology: planners walk
// the deployment's single up-down path per host pair and see every
// deployed box with its current liveness.
var _ treeplan.Topology = (*Deployment)(nil)

// Plan computes a request's aggregation tree with the deployment's
// planner: the master's view.
func (d *Deployment) Plan(req treeplan.Request) treeplan.Tree {
	return d.planner.Plan(d, req)
}

// Route computes one worker's box chain with the deployment's planner:
// the worker's view, the chain Plan holds for it (treeplan's per-worker
// decomposability).
func (d *Deployment) Route(req treeplan.Request, worker string) []treeplan.Box {
	return d.planner.Route(d, req, worker)
}

// PathSwitches implements treeplan.Topology: the switches on the up-down
// path from a worker to the master. The hash is ignored — the emulated
// testbed fabric has one path per host pair. It panics on unknown hosts,
// which indicates a deployment configuration error.
func (d *Deployment) PathSwitches(worker, master string, _ uint64) []string {
	d.mu.RLock()
	w, wok := d.hosts[worker]
	m, mok := d.hosts[master]
	d.mu.RUnlock()
	if !wok {
		panic(fmt.Sprintf("cluster: unknown worker host %q", worker))
	}
	if !mok {
		panic(fmt.Sprintf("cluster: unknown master host %q", master))
	}
	if worker == master {
		return nil
	}
	return upDown(w.up, m.up)
}

// BoxesAt implements treeplan.Topology: the boxes attached to a switch in
// deployment order, dead ones included (flagged, so planners can skip and
// count them).
func (d *Deployment) BoxesAt(sw string) []treeplan.Box {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]treeplan.Box, len(d.at[sw]))
	for i, s := range d.at[sw] {
		out[i] = s.plannerBox()
	}
	return out
}

// MaxReq is the largest request identifier WireReq can carry: the wire
// id keeps it in its top 56 bits, and a larger one would lose its top bits
// on the way. shim.Master.Submit and shim.Worker.SendPartials refuse one.
const MaxReq uint64 = 1<<56 - 1

// MaxTrees is the most aggregation trees one request may use: the wire id
// keeps the tree index in 4 bits. shim.Master.Submit and
// shim.Worker.SendPartials refuse more.
const MaxTrees = 16

// WireReq encodes a request identifier (at most MaxReq), aggregation tree
// index, and recovery attempt into the request id carried on the wire, so
// every (tree, attempt) is an independent aggregation at the boxes. Trees
// and attempts are limited to 16 each; out-of-range values are clamped to the
// nearest bound with a logged error, because silent truncation (the old
// behaviour) would alias a 17th attempt onto attempt 1's in-flight
// aggregation state at the boxes.
func WireReq(req uint64, tree, attempt int) uint64 {
	return req<<8 | uint64(clampWireField("tree", tree))<<4 | uint64(clampWireField("attempt", attempt))
}

// clampWireField bounds one 4-bit WireReq field, logging overflow: an
// out-of-range value is a caller bug (shim.Master stops at three attempts,
// and Submit and SendPartials refuse more than MaxTrees trees) that must
// not pass silently.
func clampWireField(name string, v int) int {
	if v >= 0 && v <= 15 {
		return v
	}
	clamped := 0
	if v > 15 {
		clamped = 15
	}
	log.Printf("cluster: wire request %s %d outside [0,15], clamping to %d", name, v, clamped)
	return clamped
}

// DecodeWireReq splits a wire request id.
func DecodeWireReq(wr uint64) (req uint64, tree, attempt int) {
	return wr >> 8, int(wr >> 4 & 0xF), int(wr & 0xF)
}
