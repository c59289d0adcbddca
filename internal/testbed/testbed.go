// Package testbed assembles complete in-process NetAgg deployments for the
// testbed experiments (§4.2): emulated hosts in racks with 1 Gbps NICs, agg
// boxes on 10 Gbps links attached to ToR and aggregation switches, worker
// shims on every host and a master shim on the frontend host. It is the
// analogue of the paper's 34-server / 2-rack testbed, with link rates
// emulated by token buckets (see internal/netem) at a 1:100 scale.
package testbed

import (
	"context"
	"fmt"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/netem"
	"netagg/internal/obs"
	"netagg/internal/shim"
	"netagg/internal/topology"
	"netagg/internal/treeplan"
)

// Config describes the deployment to build.
type Config struct {
	// Racks is the number of racks (all in one pod), ≥ 1.
	Racks int
	// WorkersPerRack is the number of worker hosts per rack; the master
	// lives on an extra host in rack 0.
	WorkersPerRack int
	// BoxesPerSwitch deploys this many agg boxes per switch; 0 = plain
	// deployment without NetAgg.
	BoxesPerSwitch int
	// EdgeGbps and BoxGbps set the emulated NIC rates (0 disables pacing).
	EdgeGbps float64
	BoxGbps  float64
	// Scale divides emulated rates (0 = netem.DefaultScale).
	Scale float64
	// Registry supplies the aggregation functions; required when boxes are
	// deployed.
	Registry *agg.Registry
	// BoxWorkers is each box's scheduler pool size (0 = 4).
	BoxWorkers int
	// Planner is the deployment's tree planner, the one every shim plans
	// with (nil = the paper's treeplan.OnPath).
	Planner treeplan.Planner
	// StragglerTimeout enables master-side recovery.
	StragglerTimeout time.Duration
	// Seed makes box scheduling deterministic.
	Seed int64
	// DebugAddr, when non-empty, serves the /debug/netagg observability
	// endpoint (metrics, traces, health — see internal/obs and
	// OPERATIONS.md) on that address. Use "127.0.0.1:0" to pick a free
	// port and read it back with DebugAddr().
	DebugAddr string
}

// Testbed is a running deployment.
type Testbed struct {
	Dep     *cluster.Deployment
	Boxes   []*core.Box
	Workers map[string]*shim.Worker
	Master  *shim.Master

	nics        map[string]*netem.NIC
	workers     []string // worker host names in order
	debugAddr   string
	debugStop   func()
	controlStop func() // set by StartControl
}

// MasterHost is the frontend/master host name.
const MasterHost = "master"

// WorkerName returns the host name of worker i in rack r.
func WorkerName(rack, i int) string { return fmt.Sprintf("r%d-h%d", rack, i) }

// New builds and starts the deployment.
func New(cfg Config) (*Testbed, error) {
	if cfg.Racks < 1 || cfg.WorkersPerRack < 1 {
		return nil, fmt.Errorf("testbed: need at least one rack and one worker, got %+v", cfg)
	}
	if cfg.BoxesPerSwitch > 0 && cfg.Registry == nil {
		return nil, fmt.Errorf("testbed: boxes require an aggregator registry")
	}
	scale := cfg.Scale
	if scale <= 0 {
		scale = netem.DefaultScale
	}

	tb := &Testbed{
		Dep:     cluster.NewDeployment(cfg.Planner),
		Workers: make(map[string]*shim.Worker),
		nics:    make(map[string]*netem.NIC),
	}
	nic := func(name string, gbps float64) *netem.NIC {
		if gbps <= 0 {
			return nil
		}
		n := netem.NewNIC(name, netem.Gbps(gbps, scale), netem.Gbps(gbps, scale))
		tb.nics[name] = n
		return n
	}

	// Hosts: the master in rack 0 plus workers.
	masterHost := cluster.Host{Name: MasterHost, Rack: 0, Pod: 0}
	tb.Dep.AddHost(masterHost)
	for r := 0; r < cfg.Racks; r++ {
		for i := 0; i < cfg.WorkersPerRack; i++ {
			h := cluster.Host{Name: WorkerName(r, i), Rack: r, Pod: 0}
			tb.Dep.AddHost(h)
			tb.workers = append(tb.workers, h.Name)
		}
	}

	// Agg boxes: one set per ToR switch, plus the pod aggregation switch
	// when there is more than one rack.
	if cfg.BoxesPerSwitch > 0 {
		switches := make([]string, 0, cfg.Racks+1)
		for r := 0; r < cfg.Racks; r++ {
			switches = append(switches, fmt.Sprintf("tor:%d", r))
		}
		if cfg.Racks > 1 {
			switches = append(switches, "agg:0")
		}
		id := uint64(1) << 32
		for _, sw := range switches {
			for k := 0; k < cfg.BoxesPerSwitch; k++ {
				box, err := core.Start(core.Config{
					ID:        id,
					Registry:  cfg.Registry,
					Workers:   cfg.BoxWorkers,
					NIC:       nic(fmt.Sprintf("box-%s-%d", sw, k), cfg.BoxGbps),
					SchedSeed: cfg.Seed + int64(id>>32),
				})
				if err != nil {
					tb.Close()
					return nil, err
				}
				tb.Boxes = append(tb.Boxes, box)
				tb.Dep.AddBox(cluster.BoxInfo{ID: id, Addr: box.Addr(), Switch: sw})
				id += 1 << 32
			}
		}
	}

	// Shims.
	for _, name := range tb.workers {
		h, _ := tb.Dep.Host(name)
		w, err := shim.NewWorker(shim.WorkerConfig{
			Host:       h,
			Deployment: tb.Dep,
			NIC:        nic(name, cfg.EdgeGbps),
		})
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Workers[name] = w
	}
	master, err := shim.NewMaster(shim.MasterConfig{
		Host:             masterHost,
		Deployment:       tb.Dep,
		NIC:              nic(MasterHost, cfg.EdgeGbps),
		StragglerTimeout: cfg.StragglerTimeout,
	})
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Master = master

	if cfg.DebugAddr != "" {
		h := obs.Handler(obs.Default, obs.DefaultTracer, tb.health)
		addr, stop, err := obs.Serve(nil, cfg.DebugAddr, h)
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("testbed: debug endpoint: %w", err)
		}
		tb.debugAddr = addr
		tb.debugStop = stop
	}
	return tb, nil
}

// DebugAddr returns the address the /debug/netagg endpoint listens on
// ("" when Config.DebugAddr was empty).
func (tb *Testbed) DebugAddr() string { return tb.debugAddr }

// health summarises deployment liveness for /debug/netagg/health.
func (tb *Testbed) health() map[string]interface{} {
	boxes := tb.Dep.Boxes()
	dead := 0
	infos := make([]map[string]interface{}, 0, len(boxes))
	for _, b := range boxes {
		if tb.Dep.Dead(b.ID) {
			dead++
		}
		info := map[string]interface{}{
			"id": b.ID, "switch": b.Switch, "dead": tb.Dep.Dead(b.ID),
		}
		if !b.LastSeen.IsZero() {
			info["last_seen"] = b.LastSeen.Format(time.RFC3339Nano)
		}
		infos = append(infos, info)
	}
	return map[string]interface{}{
		"boxes":      len(boxes),
		"boxes_dead": dead,
		"workers":    len(tb.workers),
		"box_detail": infos,
	}
}

// WorkerHosts lists worker host names in deployment order.
func (tb *Testbed) WorkerHosts() []string { return tb.workers }

// StartControl starts the deployment's control plane, which is one loop —
// the failure monitor's heartbeat (DESIGN.md §16) — and returns the
// function that stops it (Close stops it too). Every interval each box is
// probed and the outcome lands in the deployment, which is the telemetry:
// a probe that declares its box dead supersedes the requests routed
// through it ("failover"), and a box whose samples cross the congestion
// hysteresis is marked so new plans avoid it and has its requests
// superseded ("migrate"). New starts none of this, so no heartbeat
// connection enters a run that did not ask for one.
func (tb *Testbed) StartControl(ctx context.Context, interval time.Duration, policy treeplan.ReplanPolicy) (stop func()) {
	mon := cluster.NewMonitor(tb.Dep, interval, policy, tb.Master.Supersede)
	mon.StartContext(ctx)
	tb.controlStop = mon.Stop
	return mon.Stop
}

// NIC returns a host's emulated NIC (nil when pacing is off), so
// application servers on that host share its link.
func (tb *Testbed) NIC(host string) *netem.NIC { return tb.nics[host] }

// BoxStats sums counters over all boxes.
func (tb *Testbed) BoxStats() core.BoxStats {
	var total core.BoxStats
	for _, b := range tb.Boxes {
		st := b.Stats()
		total.BytesIn += st.BytesIn
		total.BytesOut += st.BytesOut
		total.Requests += st.Requests
		total.Combines += st.Combines
		total.FanoutCopies += st.FanoutCopies
	}
	return total
}

// Close tears the deployment down.
func (tb *Testbed) Close() {
	if tb.controlStop != nil {
		tb.controlStop()
	}
	if tb.debugStop != nil {
		tb.debugStop()
		tb.debugStop = nil
	}
	if tb.Master != nil {
		tb.Master.Close()
	}
	for _, w := range tb.Workers {
		w.Close()
	}
	for _, b := range tb.Boxes {
		b.Close()
	}
}

// Gbps re-exports the topology constant for callers sizing NICs.
const Gbps = topology.Gbps
