package treeplan_test

import (
	"fmt"
	"testing"

	"netagg/internal/cluster"
	"netagg/internal/treeplan"
)

// benchDeployment builds the paper's testbed shape at benchmark size:
// 4 racks of 8 workers in one pod, two boxes per ToR and at the pod
// aggregation switch. Every box carries a load, recorded the way the
// failure monitor records a heartbeat echo, so LoadAware pays its full
// per-pick weighting cost on the live path.
func benchDeployment() (*cluster.Deployment, []string) {
	d := cluster.NewDeployment(nil)
	d.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	var workers []string
	for r := 0; r < 4; r++ {
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("r%dh%d", r, i)
			d.AddHost(cluster.Host{Name: name, Rack: r, Pod: 0})
			workers = append(workers, name)
		}
	}
	id := uint64(1) << 32
	for _, sw := range []string{"tor:0", "tor:1", "tor:2", "tor:3", "agg:0"} {
		for k := 0; k < 2; k++ {
			d.AddBox(cluster.BoxInfo{ID: id, Addr: "10.0.0.1:1", Switch: sw})
			d.ObserveLoad(id, int(id>>32), 5000)
			id += 1 << 32
		}
	}
	return d, workers
}

// benchPlan drives one planner over the benchmark deployment with a fresh
// request hash per iteration (plans are per-request work in the shims'
// submit and redirect paths).
func benchPlan(b *testing.B, p treeplan.Planner) {
	d, workers := benchDeployment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := p.Plan(d, treeplan.NewRequest(uint64(i), 0, 0, "master", workers))
		if tree.Finals == 0 {
			b.Fatal("empty plan")
		}
	}
}

func BenchmarkPlanOnPath(b *testing.B)    { benchPlan(b, treeplan.OnPath{}) }
func BenchmarkPlanLoadAware(b *testing.B) { benchPlan(b, treeplan.LoadAware{}) }

// BenchmarkPlanOnPathRoute is what a worker shim asks for once a tree: its
// own route, from the rack furthest from the master's.
func BenchmarkPlanOnPathRoute(b *testing.B) {
	d, workers := benchDeployment()
	worker := workers[len(workers)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chain := (treeplan.OnPath{}).Route(d, treeplan.NewRequest(uint64(i), 0, 0, "master", nil), worker); len(chain) == 0 {
			b.Fatal("empty route")
		}
	}
}
