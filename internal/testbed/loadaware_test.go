package testbed

import (
	"testing"

	"netagg/internal/obs"
	"netagg/internal/treeplan"
)

// TestLoadAwarePlansOnMeasuredLoad runs LoadAware on the live fabric with
// the load the deployment records, as the failure monitor records a
// heartbeat echo: 25 jobs over an idle fleet, then 25 more after one ToR
// box's load is raised. Every result must be exact, and the loaded box
// must take less than half the share of its switch's trees it took idle.
// The master and the workers each plan at their own instant, so a load
// that moved a box's bucket between those instants would cost a redirect;
// the test logs how many the run caused.
func TestLoadAwarePlansOnMeasuredLoad(t *testing.T) {
	tb := wcTestbed(t, Config{Racks: 2, WorkersPerRack: 2, BoxesPerSwitch: 2, Seed: 5, Planner: treeplan.LoadAware{}})
	// The master sits in rack 0, so every tree ends at one of tor:0's
	// two boxes, which are the first two deployed.
	hot, cold := tb.Boxes[0], tb.Boxes[1]
	hotID := tb.Dep.BoxesAt("tor:0")[0].ID
	redirects := obs.C("shim.redirects_sent")
	redirectsBefore := redirects.Value()

	const jobs = 25
	wantK := int64(0)
	for i := range tb.WorkerHosts() {
		wantK += int64(i + 1)
	}
	attempts := 0
	// share runs jobs requests from id base and returns the hot box's
	// share of the tor:0 trees they used.
	share := func(base uint64) float64 {
		hot0, cold0 := hot.Stats().Requests, cold.Stats().Requests
		for id := base; id < base+jobs; id++ {
			pending, err := tb.Master.Submit("wc", id, tb.WorkerHosts(), 1)
			if err != nil {
				t.Fatal(err)
			}
			res := finishJob(t, tb, id, pending)
			if got := sumParts(t, res)["k"]; got != wantK {
				t.Fatalf("request %d: k = %d, want %d", id, got, wantK)
			}
			attempts += res.Attempts
			res.Release()
		}
		h, c := hot.Stats().Requests-hot0, cold.Stats().Requests-cold0
		if h+c != jobs {
			t.Fatalf("tor:0 boxes finished %d+%d requests of %d", h, c, jobs)
		}
		return float64(h) / jobs
	}

	idle := share(0x10AD00)
	tb.Dep.ObserveLoad(hotID, 1<<10, 0)
	loaded := share(0x10AE00)
	t.Logf("hot box share of trees: %.2f idle, %.2f loaded; %d redirects, %d re-planned attempts",
		idle, loaded, redirects.Value()-redirectsBefore, attempts)
	if loaded >= idle/2 {
		t.Fatalf("loaded box took %.2f of the trees, %.2f idle: LoadAware did not steer off it", loaded, idle)
	}
}
