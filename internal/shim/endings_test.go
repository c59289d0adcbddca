package shim

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"netagg/internal/bufpool"
	"netagg/internal/cluster"
	"netagg/internal/obs"
	"netagg/internal/wire"
)

// poolBalance fails the test unless every pool reference minted since
// before has been released within wait.
func poolBalance(t *testing.T, before bufpool.Stats, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		after := bufpool.ReadStats()
		acq, rel := after.Acquires()-before.Acquires(), after.Releases-before.Releases
		if acq == rel {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("bufpool unbalanced: %d acquires vs %d releases", acq, rel)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrorAfterDeliveryReleasesBuffers pins the ending the race between
// two trees used to leak on: one tree's result is already buffered when
// the other tree's box reports an error. The request must end in that
// error with the buffered part back in the pool — at once, not whenever
// the garbage collector finds it.
func TestErrorAfterDeliveryReleasesBuffers(t *testing.T) {
	dep := cluster.NewDeployment(nil)
	dep.AddHost(cluster.Host{Name: "master"})
	dep.AddHost(cluster.Host{Name: "w0"})
	m, err := NewMaster(MasterConfig{Host: cluster.Host{Name: "master"}, Deployment: dep})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := bufpool.ReadStats()
	p, err := m.Submit("app", 7, []string{"w0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.handle(&wire.Msg{Type: wire.TResult, App: "app", Req: cluster.WireReq(7, 0, 0), Source: 42, Payload: []byte("good")})
	m.handle(&wire.Msg{Type: wire.TError, App: "app", Req: cluster.WireReq(7, 1, 0), Source: 43, Payload: []byte("boom")})
	res := waitResult2(t, p)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "boom") || res.Parts != nil {
		t.Fatalf("result = %+v, want the box's error and no parts", res)
	}
	poolBalance(t, before, 0)
}

// TestEveryEndingEndsOnce is the table over the six ways a request ends.
// Whatever ends it: exactly one Result with the right error, the id free
// for Submit the moment the Result is read, every pool reference released
// — and, for the error endings of a master that lives on, every box of
// the request told to drop its state at once (the boxes count a TCancel
// that found something to drop) instead of holding it for the janitor.
// And whatever ends it, its trace is complete by the time the Result can
// be read: Done, with the error on the master span.
func TestEveryEndingEndsOnce(t *testing.T) {
	workers := []string{"w0", "w1", "w2", "w3"}
	for _, tc := range []struct {
		name      string
		straggler time.Duration
		// end drives the submitted request to its ending.
		end func(t *testing.T, r *rig, p *Pending)
		// check inspects the one Result.
		check func(t *testing.T, res Result)
		// cancelled is how many box-held requests the ending must tear down.
		cancelled int64
		closed    bool
	}{{
		name: "success",
		end: func(t *testing.T, r *rig, p *Pending) {
			for i, w := range workers {
				if err := r.workers[w].SendPartials("wc", p.req, i, "master", [][]byte{kvPart("k", 1)}, 1); err != nil {
					t.Fatal(err)
				}
			}
		},
		check: func(t *testing.T, res Result) {
			if got := sumResult(t, res)["k"]; got != 4 {
				t.Fatalf("k = %d, want 4", got)
			}
		},
	}, {
		// w0 streams enough undecodable parts for its box to merge a batch
		// — an eighth of a tree's count budget of 2,048 — before the others
		// have sent anything: tor:0 reports the error while tor:1 and agg:0
		// still hold the request.
		name: "TError",
		end: func(t *testing.T, r *rig, p *Pending) {
			bad := make([][]byte, 256)
			for i := range bad {
				bad[i] = []byte{0xff}
			}
			if err := r.workers["w0"].SendPartials("wc", p.req, 0, "master", bad, 1); err != nil {
				t.Fatal(err)
			}
		},
		check: func(t *testing.T, res Result) {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "aggregation failed") {
				t.Fatalf("err = %v, want the box's aggregation error", res.Err)
			}
		},
		cancelled: 2,
	}, {
		// Nobody sends: four attempts arm three boxes each; the re-arms
		// cancel the first nine, the ending must cancel the last three.
		name:      "attempt budget exhausted",
		straggler: 20 * time.Millisecond,
		end:       func(*testing.T, *rig, *Pending) {},
		check: func(t *testing.T, res Result) {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "failed after 3 attempts") || res.Attempts != 3 {
				t.Fatalf("result = %+v, want the budget error after 3 attempts", res)
			}
		},
		cancelled: 12,
	}, {
		// tor:0's box is declared dead and its only stand-in does not
		// answer, so the re-arm cannot announce the new attempt.
		name: "arm failure inside redirect",
		end: func(t *testing.T, r *rig, _ *Pending) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			r.dep.AddBox(cluster.BoxInfo{ID: 9 << 32, Addr: l.Addr().String(), Switch: "tor:0"})
			r.dep.MarkDead(1 << 32)
			r.master.Supersede(1<<32, "failover")
			// The request has ended by now; heal the deployment so the
			// resubmit below is refused only if the id is still taken.
			r.dep.MarkDead(9 << 32)
			r.dep.MarkAlive(1 << 32)
		},
		check: func(t *testing.T, res Result) {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "expect to box") || res.Attempts != 1 {
				t.Fatalf("result = %+v, want the failed announce of attempt 1", res)
			}
		},
		cancelled: 3,
	}, {
		name: "Cancel",
		end:  func(_ *testing.T, _ *rig, p *Pending) { p.Cancel() },
		check: func(t *testing.T, res Result) {
			if !errors.Is(res.Err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", res.Err)
			}
		},
		cancelled: 3,
	}, {
		name: "Close",
		end:  func(_ *testing.T, r *rig, _ *Pending) { r.master.Close() },
		check: func(t *testing.T, res Result) {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "master closed") {
				t.Fatalf("err = %v, want master closed", res.Err)
			}
		},
		closed: true,
	}} {
		req := nextTracedReq()
		t.Run(tc.name, func(t *testing.T) {
			before := bufpool.ReadStats()
			cancels := obs.C("box.requests_cancelled")
			cancelsBefore := cancels.Value()
			r := newRig(t, tc.straggler)
			p, err := r.master.Submit("wc", req, workers, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.end(t, r, p)
			res := waitResult2(t, p)
			tr, _ := obs.DefaultTracer.Lookup(cluster.WireReq(req, 0, res.Attempts), "wc")
			var ending []string
			for _, s := range tr.Spans {
				if s.Hop == "master" {
					ending = append(ending, s.Err)
				}
			}
			wantErr := ""
			if res.Err != nil {
				wantErr = res.Err.Error()
			}
			if !tr.Done || len(ending) != 1 || ending[0] != wantErr {
				t.Fatalf("trace done = %v with master span errors %q, want a completed trace whose one master span says %q", tr.Done, ending, wantErr)
			}
			// The id is free the moment the Result is read.
			again, err := r.master.Submit("wc", req, workers, 1)
			if tc.closed == (err == nil) {
				t.Fatalf("resubmit of the ended id: err = %v, master closed = %v", err, tc.closed)
			}
			tc.check(t, res)
			res.Release()

			// Nothing ends a request twice.
			p.Cancel()
			select {
			case extra := <-p.C:
				t.Fatalf("second result delivered: %+v", extra)
			default:
			}

			want := tc.cancelled + 3 // plus the resubmitted request's three boxes
			if !tc.closed {
				again.Cancel()
				deadline := time.Now().Add(time.Second)
				for cancels.Value()-cancelsBefore < want {
					if time.Now().After(deadline) {
						t.Fatalf("boxes dropped %d requests on TCancel within a second, want %d",
							cancels.Value()-cancelsBefore, want)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			r.close()
			poolBalance(t, before, 5*time.Second)
			if got := cancels.Value() - cancelsBefore; tc.name == "success" && got != want {
				t.Fatalf("%d requests cancelled, want only the resubmitted one's %d: a successful ending sends no TCancel", got, want)
			}
		})
	}
}
