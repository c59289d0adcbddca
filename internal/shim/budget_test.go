package shim

import (
	"fmt"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/treeplan"
)

// TestRedirectBudgetExhausted pins the recovery exit path: when no worker
// ever delivers and every straggler timer fires, the master must fail the
// pending request cleanly after maxAttempts redirects — an error Result
// with the attempt count, the request deregistered, and no timer left
// running (the leak checker in TestMain would catch a stray one).
func TestRedirectBudgetExhausted(t *testing.T) {
	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	dep.AddHost(cluster.Host{Name: "w0", Rack: 0, Pod: 0})

	master, err := NewMaster(MasterConfig{
		Host:             cluster.Host{Name: "master", Rack: 0, Pod: 0},
		Deployment:       dep,
		StragglerTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	p, err := master.Submit("wc", 7, []string{"w0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult2(t, p)
	if res.Err == nil {
		t.Fatal("request with a silent worker must fail once the attempt budget is spent")
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (maxAttempts)", res.Attempts)
	}
	// The failed request must be fully deregistered: the same ID is
	// submittable again.
	p2, err := master.Submit("wc", 7, []string{"w0"}, 1)
	if err != nil {
		t.Fatalf("resubmit after budget failure: %v", err)
	}
	res2 := waitResult2(t, p2)
	if res2.Err == nil {
		t.Fatal("second run should fail the same way")
	}
}

// TestLoadAwarePlannerEndToEnd runs a live aggregation over a deployment
// planned by a LoadAware planner while the deployment records the first
// box's load as near-saturated: the request must complete through the
// cold box while the hot box sees no aggregation traffic.
func TestLoadAwarePlannerEndToEnd(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})

	// The one planner the deployment's master and workers all plan with;
	// the hot box's load is set below, the way its heartbeat echo would.
	hotID, coldID := uint64(1)<<32, uint64(2)<<32
	dep := cluster.NewDeployment(treeplan.LoadAware{})
	dep.AddHost(cluster.Host{Name: "master", Rack: 0, Pod: 0})
	hosts := []cluster.Host{
		{Name: "w0", Rack: 0, Pod: 0},
		{Name: "w1", Rack: 0, Pod: 0},
	}
	var boxes []*core.Box
	for i, id := range []uint64{hotID, coldID} {
		box, err := core.Start(core.Config{ID: id, Registry: reg, Workers: 2, SchedSeed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, box)
		dep.AddBox(cluster.BoxInfo{ID: id, Addr: box.Addr(), Switch: "tor:0"})
	}
	dep.ObserveLoad(hotID, 1<<20, 500000)
	defer func() {
		for _, b := range boxes {
			b.Close()
		}
	}()

	workers := make(map[string]*Worker)
	for _, h := range hosts {
		dep.AddHost(h)
		w, err := NewWorker(WorkerConfig{Host: h, Deployment: dep})
		if err != nil {
			t.Fatal(err)
		}
		workers[h.Name] = w
		defer w.Close()
	}
	master, err := NewMaster(MasterConfig{
		Host:       cluster.Host{Name: "master", Rack: 0, Pod: 0},
		Deployment: dep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	done := 0
	for req := uint64(1); req <= 8; req++ {
		p, err := master.Submit("wc", req, []string{"w0", "w1"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"w0", "w1"} {
			if err := workers[name].SendPartials("wc", req, i, "master", [][]byte{
				kvPart(fmt.Sprintf("k%d", req), int64(i+1)),
			}, 1); err != nil {
				t.Fatal(err)
			}
		}
		res := waitResult2(t, p)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		totals := sumResult(t, res)
		if totals[fmt.Sprintf("k%d", req)] != 3 {
			t.Fatalf("req %d totals = %v", req, totals)
		}
		done++
	}

	hot, cold := boxes[0].Stats(), boxes[1].Stats()
	if done != 8 || cold.Requests == 0 {
		t.Fatalf("cold box handled %d requests, want all %d", cold.Requests, done)
	}
	if hot.Requests != 0 {
		t.Fatalf("hot box handled %d requests, want 0 (steered off)", hot.Requests)
	}
}
