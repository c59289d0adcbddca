package shim

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"netagg/internal/agg"
	"netagg/internal/cluster"
	"netagg/internal/core"
	"netagg/internal/obs"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// startBox starts one more box for the rig to close; addBox also deploys
// it at a switch, under its own address.
func (r *rig) startBox(t *testing.T, id uint64) *core.Box {
	t.Helper()
	reg := agg.NewRegistry()
	reg.Register("wc", agg.KVCombiner{Op: agg.OpSum})
	box, err := core.Start(core.Config{ID: id, Registry: reg, Workers: 2, SchedSeed: int64(id >> 32)})
	if err != nil {
		t.Fatal(err)
	}
	r.boxes = append(r.boxes, box)
	return box
}

func (r *rig) addBox(t *testing.T, id uint64, sw string) {
	t.Helper()
	r.dep.AddBox(cluster.BoxInfo{ID: id, Addr: r.startBox(t, id).Addr(), Switch: sw})
}

// TestSupersedeCauses is the table over the three things that supersede an
// attempt — the straggler timer, a failed box, a congested box. All three
// are the same verb: the request moves onto attempt 1 and completes there
// exactly, Supersede reports how many requests it moved (none for a box no
// request uses), and the new attempt's trace says why it exists, once.
func TestSupersedeCauses(t *testing.T) {
	workers := []string{"w0", "w1"} // rack 0, like the master: tor:0 is their whole path
	for _, tc := range []struct {
		cause     string
		straggler time.Duration
		mark      func(dep *cluster.Deployment, box uint64)
		supersede bool
	}{
		// Nobody tells the master: the box is only marked, and the timer moves the request.
		{"straggler", 200 * time.Millisecond, (*cluster.Deployment).MarkDead, false},
		{"failover", 5 * time.Second, (*cluster.Deployment).MarkDead, true},
		{"migrate", 5 * time.Second, func(d *cluster.Deployment, box uint64) { d.MarkCongested(box, true) }, true},
	} {
		t.Run(tc.cause, func(t *testing.T) {
			r := newRig(t, tc.straggler)
			r.addBox(t, 4<<32, "tor:0") // a sibling, so a plan can avoid a congested box
			req := nextTracedReq()
			p, err := r.master.Submit("wc", req, workers, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.mu.Lock()
			var used uint64
			for id := range p.boxes {
				used = id
			}
			p.mu.Unlock()
			// The box stops answering before the workers send, so attempt 0
			// cannot complete whatever the timing.
			for _, b := range r.boxes {
				if b.Addr() == mustBox(t, r.dep, used).Addr {
					b.Close()
				}
			}
			for i, w := range workers {
				// The send may or may not see the closed socket; either way the
				// partials are retained for the redirect.
				_ = r.workers[w].SendPartials("wc", req, i, "master", [][]byte{kvPart("k", int64(i+1))}, 1)
			}
			tc.mark(r.dep, used)
			if n := r.master.Supersede(2<<32, tc.cause); n != 0 {
				t.Fatalf("Supersede of a box no request uses moved %d requests", n)
			}
			node := "master"
			if tc.supersede {
				node = fmt.Sprintf("box:%d", used)
				if n := r.master.Supersede(used, tc.cause); n != 1 {
					t.Fatalf("Supersede moved %d requests, want 1", n)
				}
			}
			res := waitResult2(t, p)
			if got := sumResult(t, res)["k"]; got != 3 || res.Attempts != 1 {
				t.Fatalf("k = %d after %d attempts, want exactly 3 on attempt 1", got, res.Attempts)
			}
			tr, _ := obs.DefaultTracer.Lookup(cluster.WireReq(req, 0, 1), "wc")
			var why []string
			for _, s := range tr.Spans {
				switch s.Hop {
				case "straggler", "failover", "migrate":
					why = append(why, s.Hop+"@"+s.Node)
				}
			}
			if len(why) != 1 || why[0] != tc.cause+"@"+node {
				t.Fatalf("attempt 1's trace explains itself as %q, want exactly [%s@%s]", why, tc.cause, node)
			}
		})
	}
}

// TestSupersedeNeedsSomewhereToGo pins the migration that is none: a
// congested box that is its switch's only live one stays in every plan as
// the last resort, so superseding the requests on it would spend an
// attempt and a full resend to land them on the same box — or, when the
// box is congested because it is dying, end them in the error of a re-arm
// that cannot reach it, one heartbeat before failover would have saved
// them. The request stays where it is.
func TestSupersedeNeedsSomewhereToGo(t *testing.T) {
	r := newRig(t, 0) // one box a switch
	workers := []string{"w0", "w1"}
	p, err := r.master.Submit("wc", 0x5F0, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.dep.MarkCongested(1<<32, true)
	if n := r.master.Supersede(1<<32, "migrate"); n != 0 {
		t.Fatalf("Supersede moved %d requests off a box with no alternative", n)
	}
	for i, w := range workers {
		if err := r.workers[w].SendPartials("wc", 0x5F0, i, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	res := waitResult2(t, p)
	if got := sumResult(t, res)["k"]; got != 2 || res.Attempts != 0 {
		t.Fatalf("k = %d after %d attempts, want 2 on the attempt it was submitted at", got, res.Attempts)
	}
}

func mustBox(t *testing.T, dep *cluster.Deployment, id uint64) cluster.BoxInfo {
	t.Helper()
	b, ok := dep.Box(id)
	if !ok {
		t.Fatalf("box %d not deployed", id)
	}
	return b
}

// TestAttemptArmedOnce pins arm's refusal of an attempt that is not newer
// than the one in force: the second arm of attempt 1 returns false and the
// box hears nothing of it. Armed twice, attempt 1 would be cancelled at the
// box — with whatever the workers had delivered for it — just ahead of its
// own second TExpect.
func TestAttemptArmedOnce(t *testing.T) {
	var mu sync.Mutex
	var heard []string
	box, err := transport.Listen(context.Background(), "127.0.0.1:0", func(_ *transport.ServerConn, m *wire.Msg) {
		_, _, attempt := cluster.DecodeWireReq(m.Req)
		mu.Lock()
		heard = append(heard, fmt.Sprintf("%v %d", m.Type, attempt))
		mu.Unlock()
		m.Release()
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()
	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master"})
	dep.AddHost(cluster.Host{Name: "w0"})
	dep.AddBox(cluster.BoxInfo{ID: 1 << 32, Addr: box.Addr(), Switch: "tor:0"})
	m, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master"}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, err := m.Submit("wc", 7, []string{"w0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		if armed, err := m.arm(p, 1, 0); err != nil || armed != want {
			t.Fatalf("arm %d of attempt 1 = %v, %v; want %v", i+1, armed, err, want)
		}
	}
	// Attempt 2's announce travels the connection the others did: once it
	// is in, so is everything the two arms of attempt 1 sent.
	if armed, err := m.arm(p, 2, 0); err != nil || !armed {
		t.Fatalf("arm of attempt 2 = %v, %v", armed, err)
	}
	want := []string{"expect 0", "cancel 0", "expect 1", "cancel 1", "expect 2"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := slices.Clone(heard)
		mu.Unlock()
		if len(got) >= len(want) || time.Now().After(deadline) {
			if !slices.Equal(got, want) {
				t.Fatalf("the box heard %q, want %q", got, want)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStragglerAndSupersedeRace runs the two things that ask for attempt
// n+1 — the straggler timer's redirect and a Supersede of the same request
// — at the same moment, fifty times: one of them arms it, the request
// completes on it exactly, and no further attempt is spent.
func TestStragglerAndSupersedeRace(t *testing.T) {
	workers := []string{"w0", "w1"}
	for i := 0; i < 50; i++ {
		r := newRig(t, 5*time.Second)
		r.addBox(t, 4<<32, "tor:0")
		p, err := r.master.Submit("wc", 0x5AC0, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		var used uint64
		for id := range p.boxes {
			used = id
		}
		p.mu.Unlock()
		// As in TestSupersedeCauses: the box is gone before the workers
		// send, so attempt 0 cannot complete.
		for _, b := range r.boxes {
			if b.Addr() == mustBox(t, r.dep, used).Addr {
				b.Close()
			}
		}
		for wi, w := range workers {
			_ = r.workers[w].SendPartials("wc", 0x5AC0, wi, "master", [][]byte{kvPart("k", int64(wi+1))}, 1)
		}
		r.dep.MarkDead(used)
		timer := make(chan bool)
		go func() { timer <- r.master.redirect(p, 0, "straggler", 0) }()
		moved := r.master.Supersede(used, "failover")
		if byTimer := <-timer; byTimer == (moved == 1) {
			t.Fatalf("run %d: the timer moved the request: %v, Supersede moved %d: want exactly one of them", i, byTimer, moved)
		}
		res := waitResult2(t, p)
		if got := sumResult(t, res)["k"]; got != 3 || res.Attempts != 1 {
			t.Fatalf("run %d: k = %d after %d attempts, want exactly 3 on attempt 1", i, got, res.Attempts)
		}
		res.Release()
		r.close()
	}
}

// countingPlanner counts what a shim asks its planner for: a worker's
// routes in plans, whole trees in trees.
type countingPlanner struct {
	treeplan.OnPath
	plans, trees atomic.Int64
}

func (c *countingPlanner) Plan(topo treeplan.Topology, req treeplan.Request) treeplan.Tree {
	c.trees.Add(1)
	return c.OnPath.Plan(topo, req)
}

func (c *countingPlanner) Route(topo treeplan.Topology, req treeplan.Request, worker string) []treeplan.Box {
	c.plans.Add(1)
	return c.OnPath.Route(topo, req, worker)
}

// TestRedirectRemembersTargets pins what the one planner of a deployment
// is asked by each end. A worker's applied redirect asks for its route
// once a tree — for the new attempt, never for the superseded one and
// never for the tree around it — and a duplicate, which the remembered
// lastAttempt turns away, asks for nothing; a master's Submit asks for one
// whole tree a tree and no route.
func TestRedirectRemembersTargets(t *testing.T) {
	const trees = 2
	r := newRig(t, 0)
	r.addBox(t, 4<<32, "tor:0")
	// A deployment of the rig's hosts, boxes and result address, planned
	// by the counting planner.
	planner := &countingPlanner{}
	dep := cluster.NewDeployment(planner)
	for _, name := range []string{"master", "w0", "w1", "w2", "w3"} {
		dep.AddHost(mustHost(t, r.dep, name))
	}
	for _, b := range r.dep.Boxes() {
		dep.AddBox(b)
	}
	resultAddr, _ := r.dep.ResultAddr("master")
	dep.SetResultAddr("master", resultAddr)
	w, err := NewWorker(WorkerConfig{Host: cluster.Host{Name: "w0"}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The marks decide the route whatever the trees hash to: tor:0 has one
	// box that is not congested, and every tree starts there.
	const req = 0x7A00
	const first, other = 1 << 32, 4 << 32
	dep.MarkCongested(other, true)
	redirect := func(attempt int) (plans int64) {
		before := planner.plans.Load()
		w.applyRedirect(&wire.Msg{Type: wire.TRedirect, App: "wc", Req: req, Payload: wire.EncodeCount(attempt)})
		return planner.plans.Load() - before
	}

	if err := w.SendPartials("wc", req, 0, "master", [][]byte{kvPart("a", 1), kvPart("b", 1), kvPart("c", 1)}, trees); err != nil {
		t.Fatal(err)
	}
	if n := planner.plans.Load(); n != trees {
		t.Fatalf("the first send planned %d times, want once per tree (%d)", n, trees)
	}

	// The marks swap after the send: attempt 1 goes to the other box.
	dep.MarkCongested(other, false)
	dep.MarkCongested(first, true)
	if n := redirect(1); n != trees {
		t.Fatalf("redirect 1 planned %d times, want once per tree (%d)", n, trees)
	}
	if n := redirect(1); n != 0 {
		t.Fatalf("a duplicate redirect planned %d times, want 0", n)
	}

	// They swap back, and then a redirect keeps the route: each is one
	// Route a tree all the same.
	dep.MarkCongested(first, false)
	dep.MarkCongested(other, true)
	for attempt := 2; attempt <= 3; attempt++ {
		if n := redirect(attempt); n != trees {
			t.Fatalf("redirect %d planned %d times, want once per tree (%d)", attempt, n, trees)
		}
	}
	if n := planner.trees.Load(); n != 0 {
		t.Fatalf("the worker shim built %d whole trees; it only ever needs its own route", n)
	}

	// The master side of the same deployment plans whole trees only. It
	// comes last because it takes over the deployment's result address.
	m, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master"}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	plans := planner.plans.Load()
	if _, err := m.Submit("wc", req+1, []string{"w0", "w1"}, trees); err != nil {
		t.Fatal(err)
	}
	if n := planner.trees.Load(); n != trees {
		t.Fatalf("a Submit planned %d trees, want one per tree (%d)", n, trees)
	}
	if n := planner.plans.Load() - plans; n != 0 {
		t.Fatalf("a Submit asked for %d worker routes, want 0", n)
	}
}

func mustHost(t *testing.T, dep *cluster.Deployment, name string) cluster.Host {
	t.Helper()
	h, ok := dep.Host(name)
	if !ok {
		t.Fatalf("host %q not deployed", name)
	}
	return h
}

// TestBufferedSendSize pins the retained record to its 112-byte size
// class. A shim holds one per request it has sent for and not yet been
// told has ended — a notice batch's worth, or, if notices are lost, the
// retention window's, over a million on a busy shim — so a word more is a
// size class (128) more on each. Ending a send needs no field of its own:
// the map entry going is the mark.
func TestBufferedSendSize(t *testing.T) {
	if got := unsafe.Sizeof(bufferedSend{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(bufferedSend{}) = %d, want 112", got)
	}
}
