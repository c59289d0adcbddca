package shim

import (
	"fmt"
	"sort"

	"netagg/internal/cluster"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// Fanout distributes one payload to many workers through the agg box
// overlay — the paper's proposed one-to-many extension (§5): instead of the
// master sending a copy per worker over its own uplink, a single copy
// travels to each on-path box, which replicates it towards its subtree.
// targets maps each worker host name to the listener address the payload
// should be delivered to (as a TData frame carrying app/req). Workers with
// no on-path box receive their copy directly from the master.
func (m *Master) Fanout(app string, req uint64, inner []byte, targets map[string]string) error {
	dep := m.cfg.Deployment
	workers := make([]string, 0, len(targets))
	for worker := range targets {
		if _, ok := dep.Host(worker); !ok {
			return fmt.Errorf("shim: unknown worker host %q", worker)
		}
		workers = append(workers, worker)
	}
	sort.Strings(workers)
	// Fanout reuses the aggregation planner in reverse: the chain a
	// worker's partials would traverse towards the master, flipped, is
	// the master's replication route towards that worker.
	plan := dep.Plan(treeplan.NewRequest(req, 0, 0, m.cfg.Host.Name, workers))
	f := wire.FanoutPayload{Inner: inner}
	for _, worker := range workers {
		chain := plan.Routes[worker]
		route := make([]string, 0, len(chain)+1)
		for i := len(chain) - 1; i >= 0; i-- {
			route = append(route, chain[i].Addr)
		}
		f.Routes = append(f.Routes, append(route, targets[worker]))
	}
	wireReq := cluster.WireReq(req, 0, 0)
	return f.Split(func(first string, direct bool, onward [][]string) error {
		if direct {
			// The first hop is the target itself (no boxes on the path).
			if err := m.pool.Send(first, &wire.Msg{Type: wire.TData, App: app, Req: wireReq, Payload: inner}); err != nil {
				return err
			}
		}
		if len(onward) == 0 {
			return nil
		}
		sub := wire.FanoutPayload{Inner: inner, Routes: onward}
		return m.pool.Send(first, &wire.Msg{Type: wire.TFanout, App: app, Req: wireReq, Payload: sub.Encode()})
	})
}
