package cluster

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netagg/internal/agg"
	"netagg/internal/bufpool"
	"netagg/internal/core"
	"netagg/internal/obs"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// twoRackDeployment builds the paper's testbed shape: two racks in one pod,
// one box per ToR plus one at the pod aggregation switch.
func twoRackDeployment() *Deployment {
	d := NewDeployment(nil)
	d.AddHost(Host{Name: "master", Rack: 0, Pod: 0})
	for i := 0; i < 3; i++ {
		d.AddHost(Host{Name: hostName(0, i), Rack: 0, Pod: 0})
		d.AddHost(Host{Name: hostName(1, i), Rack: 1, Pod: 0})
	}
	d.AddBox(BoxInfo{ID: 1 << 32, Addr: "127.0.0.1:9001", Switch: "tor:0"})
	d.AddBox(BoxInfo{ID: 2 << 32, Addr: "127.0.0.1:9002", Switch: "tor:1"})
	d.AddBox(BoxInfo{ID: 3 << 32, Addr: "127.0.0.1:9003", Switch: "agg:0"})
	return d
}

func hostName(rack, i int) string {
	return string(rune('a'+rack)) + string(rune('0'+i))
}

func TestPathSwitches(t *testing.T) {
	d := NewDeployment(nil)
	d.AddHost(Host{Name: "w", Rack: 0, Pod: 0})
	d.AddHost(Host{Name: "rack", Rack: 0, Pod: 0})
	d.AddHost(Host{Name: "pod", Rack: 1, Pod: 0})
	d.AddHost(Host{Name: "far", Rack: 2, Pod: 1})
	if got := d.PathSwitches("w", "rack", 0); !slices.Equal(got, []string{"tor:0"}) {
		t.Fatalf("same rack path = %v", got)
	}
	if got := d.PathSwitches("w", "pod", 0); !slices.Equal(got, []string{"tor:0", "agg:0", "tor:1"}) {
		t.Fatalf("same pod path = %v", got)
	}
	if got := d.PathSwitches("w", "far", 0); len(got) != 5 || got[2] != "core" {
		t.Fatalf("cross pod path = %v", got)
	}
	if d.PathSwitches("w", "w", 0) != nil {
		t.Fatal("same host has no path")
	}
}

// chainFor plans one tree through the paper's OnPath planner over the
// deployment and returns the given worker's box route.
func chainFor(d *Deployment, worker string, req uint64, tree int) []treeplan.Box {
	plan := treeplan.OnPath{}.Plan(d, treeplan.NewRequest(req, tree, 0, "master", []string{worker}))
	return plan.Routes[worker]
}

func TestChainSkipsUnequippedSwitches(t *testing.T) {
	d := twoRackDeployment()
	chain := chainFor(d, "b0", 1, 0) // b0 is in rack 1
	// Path tor:1 → agg:0 → tor:0, all equipped: 3 boxes.
	if len(chain) != 3 {
		t.Fatalf("chain = %v", chain)
	}
	if chain[0].Switch != "tor:1" || chain[1].Switch != "agg:0" || chain[2].Switch != "tor:0" {
		t.Fatalf("chain order wrong: %v", chain)
	}
}

func TestChainSkipsDeadBoxes(t *testing.T) {
	d := twoRackDeployment()
	d.MarkDead(3 << 32) // agg box
	chain := chainFor(d, "b0", 1, 0)
	if len(chain) != 2 {
		t.Fatalf("chain should skip the dead box: %v", chain)
	}
	d.MarkAlive(3 << 32)
	if len(chainFor(d, "b0", 1, 0)) != 3 {
		t.Fatal("revived box should reappear")
	}
}

func TestChainDeterministicPerRequest(t *testing.T) {
	d := twoRackDeployment()
	// Scale out: second box at tor:0.
	d.AddBox(BoxInfo{ID: 9 << 32, Addr: "127.0.0.1:9009", Switch: "tor:0"})
	c1 := chainFor(d, "a1", 42, 0)
	c2 := chainFor(d, "a1", 42, 0)
	if c1[0].ID != c2[0].ID {
		t.Fatal("same request must pick the same box")
	}
	// Different requests eventually pick the other box.
	saw := map[uint64]bool{}
	for req := uint64(0); req < 32; req++ {
		saw[chainFor(d, "a1", req, 0)[0].ID] = true
	}
	if len(saw) != 2 {
		t.Fatalf("scale-out should spread requests over boxes, saw %v", saw)
	}
}

func TestPlanExpectCounts(t *testing.T) {
	d := twoRackDeployment()
	tp := treeplan.OnPath{}.Plan(d, treeplan.NewRequest(5, 0, 0, "master", []string{"a0", "a1", "b0", "b1"}))
	// a0, a1 (rack 0): chain [tor:0 box]; b0, b1 (rack 1): chain
	// [tor:1, agg:0, tor:0].
	tor0, tor1, agg0 := uint64(1<<32), uint64(2<<32), uint64(3<<32)
	if tp.Expect[tor1] != 2 {
		t.Fatalf("tor:1 expects %d, want 2 workers", tp.Expect[tor1])
	}
	if tp.Expect[agg0] != 1 {
		t.Fatalf("agg:0 expects %d, want 1 upstream box", tp.Expect[agg0])
	}
	if tp.Expect[tor0] != 3 {
		t.Fatalf("tor:0 expects %d, want 2 workers + 1 upstream box", tp.Expect[tor0])
	}
	if tp.Finals != 1 {
		t.Fatalf("finals = %d, want a single fully aggregated result", tp.Finals)
	}
}

func TestPlanNoBoxesDirectDelivery(t *testing.T) {
	d := NewDeployment(nil)
	d.AddHost(Host{Name: "m", Rack: 0})
	d.AddHost(Host{Name: "w1", Rack: 0})
	d.AddHost(Host{Name: "w2", Rack: 1})
	tp := treeplan.OnPath{}.Plan(d, treeplan.NewRequest(1, 0, 0, "m", []string{"w1", "w2"}))
	if tp.Finals != 2 {
		t.Fatalf("finals = %d, want 2 direct deliveries", tp.Finals)
	}
	if len(tp.Expect) != 0 {
		t.Fatalf("no boxes should be planned: %v", tp.Expect)
	}
}

func TestPlanMultipleTrees(t *testing.T) {
	d := twoRackDeployment()
	trees := make([]treeplan.Tree, 2)
	for tr := range trees {
		trees[tr] = treeplan.OnPath{}.Plan(d, treeplan.NewRequest(5, tr, 0, "master", []string{"a0", "b0"}))
	}
	if got := treeplan.TotalFinals(trees); got != 2 {
		t.Fatalf("total finals = %d, want one per tree", got)
	}
}

func TestWireReqCodec(t *testing.T) {
	wr := WireReq(12345, 3, 2)
	req, tree, attempt := DecodeWireReq(wr)
	if req != 12345 || tree != 3 || attempt != 2 {
		t.Fatalf("decode = (%d, %d, %d)", req, tree, attempt)
	}
}

// TestWireReqRoundTrip exercises the codec over the full 4-bit field
// domain and a request id using all remaining bits.
func TestWireReqRoundTrip(t *testing.T) {
	const bigReq = uint64(1)<<55 | 0xDEAD
	for tree := 0; tree < 16; tree++ {
		for attempt := 0; attempt < 16; attempt++ {
			gotReq, gotTree, gotAttempt := DecodeWireReq(WireReq(bigReq, tree, attempt))
			if gotReq != bigReq || gotTree != tree || gotAttempt != attempt {
				t.Fatalf("round trip (%d,%d,%d) = (%d,%d,%d)",
					bigReq, tree, attempt, gotReq, gotTree, gotAttempt)
			}
		}
	}
}

// TestWireReqClampsOutOfRange pins the overflow guard: a tree or attempt
// outside the 4-bit wire fields clamps to the nearest bound instead of
// silently truncating onto another attempt's wire identity (a 17th
// attempt must not alias attempt 1's in-flight aggregation state).
func TestWireReqClampsOutOfRange(t *testing.T) {
	if got, want := WireReq(7, 16, 0), WireReq(7, 15, 0); got != want {
		t.Fatalf("tree 16 = %#x, want clamped to 15 (%#x)", got, want)
	}
	if got, want := WireReq(7, 0, 17), WireReq(7, 0, 15); got != want {
		t.Fatalf("attempt 17 = %#x, want clamped to 15 (%#x)", got, want)
	}
	// The old truncating behaviour mapped attempt 17 onto attempt 1.
	if WireReq(7, 0, 17) == WireReq(7, 0, 1) {
		t.Fatal("attempt 17 must not alias attempt 1")
	}
	if got, want := WireReq(7, -1, -9), WireReq(7, 0, 0); got != want {
		t.Fatalf("negative fields = %#x, want clamped to 0 (%#x)", got, want)
	}
}

func TestMonitorDetectsDeadBox(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("x", agg.Concat{})
	box, err := core.Start(core.Config{ID: 1 << 32, Registry: reg, Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: 1 << 32, Addr: box.Addr(), Switch: "tor:0"})

	failed := make(chan uint64, 1)
	m := NewMonitor(d, 30*time.Millisecond, quiet, failovers(failed))
	m.StartContext(t.Context())
	defer m.Stop()

	// Healthy at first.
	select {
	case id := <-failed:
		t.Fatalf("healthy box %d reported failed", id)
	case <-time.After(200 * time.Millisecond):
	}
	box.Close()
	select {
	case id := <-failed:
		if id != 1<<32 {
			t.Fatalf("wrong box failed: %d", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure not detected")
	}
	if !d.Dead(1 << 32) {
		t.Fatal("box should be marked dead in the deployment")
	}
}

// TestMonitorDeclaresWedgedBoxDead covers the stall a closed box never
// shows: a box that accepts and reads heartbeats but never echoes one.
// Every send succeeds, so each probe must time out, drop its connection
// and re-dial on the next probe, and the third miss declares the box dead
// — once.
func TestMonitorDeclaresWedgedBoxDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, c) // reads every heartbeat, answers none
				c.Close()
			}()
		}
	}()
	defer wg.Wait()
	defer ln.Close()

	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: 1 << 32, Addr: ln.Addr().String(), Switch: "tor:0"})
	// Probes are counted as misses: act runs on the prober right after
	// the miss that declares the box dead is counted.
	misses := obs.C("cluster.hb_misses")
	start := misses.Value()
	failed := make(chan int64, 4)
	m := NewMonitor(d, 30*time.Millisecond, quiet, func(id uint64, cause string) int {
		if cause == "failover" {
			failed <- misses.Value() - start
		}
		return 0
	})
	m.StartContext(t.Context())
	defer m.Stop()

	select {
	case probes := <-failed:
		if probes != 3 {
			t.Fatalf("declared dead at probe %d, want the third miss", probes)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("monitor never declared the wedged box dead")
	}
	if !d.Dead(1 << 32) {
		t.Fatal("wedged box should be marked dead in the deployment")
	}
	for deadline := time.Now().Add(2 * time.Second); misses.Value()-start < 6; {
		if time.Now().After(deadline) {
			t.Fatal("monitor stopped probing the wedged box")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	probes := misses.Value() - start
	if len(failed) != 0 {
		t.Fatal("wedged box declared dead twice")
	}
	if n := accepted.Load(); n < probes {
		t.Fatalf("%d connections for %d timed-out probes: a probe that times out must drop its connection so the next re-dials", n, probes)
	}
}

func TestLastSeenTracking(t *testing.T) {
	d := twoRackDeployment()
	// Never heartbeated: zero time, via every accessor.
	if !d.LastSeen(1 << 32).IsZero() {
		t.Fatal("fresh box must have zero LastSeen")
	}
	if b, _ := d.Box(1 << 32); !b.LastSeen.IsZero() {
		t.Fatal("Box must report zero LastSeen before any heartbeat")
	}
	before := time.Now()
	d.MarkSeen(1 << 32)
	after := time.Now()
	got := d.LastSeen(1 << 32)
	if got.Before(before) || got.After(after) {
		t.Fatalf("LastSeen = %v, want within [%v, %v]", got, before, after)
	}
	// The getters surface the same timestamp on BoxInfo.
	if b, ok := d.Box(1 << 32); !ok || !b.LastSeen.Equal(got) {
		t.Fatalf("Box().LastSeen = %v, want %v", b.LastSeen, got)
	}
	for _, b := range d.Boxes() {
		if b.ID == 1<<32 && !b.LastSeen.Equal(got) {
			t.Fatalf("Boxes() LastSeen = %v, want %v", b.LastSeen, got)
		}
		if b.ID != 1<<32 && !b.LastSeen.IsZero() {
			t.Fatalf("box %d never heartbeated but LastSeen = %v", b.ID, b.LastSeen)
		}
	}
}

// TestMonitorDetectionLatency pins the failure-detection bound (§3.1):
// a box that dies is declared dead within deadAfter×interval of its last
// successful heartbeat, plus one interval of probe-phase slack.
func TestMonitorDetectionLatency(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("x", agg.Concat{})
	box, err := core.Start(core.Config{ID: 1 << 32, Registry: reg, Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: 1 << 32, Addr: box.Addr(), Switch: "tor:0"})

	const interval = 100 * time.Millisecond
	failed := make(chan uint64, 1)
	m := NewMonitor(d, interval, quiet, failovers(failed))
	m.StartContext(t.Context())
	defer m.Stop()

	// Let a few heartbeats land so LastSeen is being maintained.
	deadline := time.Now().Add(2 * time.Second)
	for d.LastSeen(1 << 32).IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("monitor never recorded a successful heartbeat")
		}
		time.Sleep(5 * time.Millisecond)
	}

	box.Close()
	var id uint64
	select {
	case id = <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("failure not detected")
	}
	detectedAt := time.Now()
	if id != 1<<32 {
		t.Fatalf("wrong box failed: %d", id)
	}
	// The declared-dead box must keep its last-healthy timestamp (the
	// LastSeen bugfix).
	info, ok := d.Box(1 << 32)
	if !ok || info.LastSeen.IsZero() {
		t.Fatal("declared-dead box must retain its LastSeen timestamp")
	}
	latency := detectedAt.Sub(info.LastSeen)
	// Worst case: the box dies right after an echo, then deadAfter
	// full probe intervals must elapse, and the declaring probe itself
	// waits up to one interval for its echo.
	bound := deadAfter*interval + interval
	if latency <= 0 {
		t.Fatalf("detection latency %v not positive", latency)
	}
	if latency > bound {
		t.Fatalf("detection latency %v exceeds bound %v (deadAfter=%d interval=%v)",
			latency, bound, deadAfter, interval)
	}
}

// rttUs reads a box's smoothed heartbeat RTT out of its load signal.
func rttUs(d *Deployment, id uint64) int64 {
	s, _ := d.read(id)
	return s.load.RTTUs
}

func TestObserveRTTEWMA(t *testing.T) {
	d := twoRackDeployment()
	if got := rttUs(d, 1<<32); got != 0 {
		t.Fatalf("unseen box RTT = %d, want 0", got)
	}
	d.observeRTT(1<<32, 800*time.Microsecond)
	if got := rttUs(d, 1<<32); got != 800 {
		t.Fatalf("first RTT observation = %dus, want 800", got)
	}
	// The EWMA (⅞ old + ⅛ new) must move toward a new level without
	// jumping to it.
	d.observeRTT(1<<32, 8800*time.Microsecond)
	if got := rttUs(d, 1<<32); got != 1800 {
		t.Fatalf("EWMA after 800→8800 = %dus, want 1800", got)
	}
}

// TestLoadEchoCannotWrapToIdle feeds heartbeat echoes whose queue depth
// overflows the load arithmetic (1<<62 queued tasks cost more µs than an
// int64 holds) or the cast from the wire's uvarint (1<<63 arrives
// negative) through the monitor's decode-and-record path: the box must
// read as the hottest load there is, to the congestion score and to
// planners, never as idle.
func TestLoadEchoCannotWrapToIdle(t *testing.T) {
	for _, depth := range []uint64{1 << 62, 1 << 63} {
		d := twoRackDeployment()
		payload := binary.AppendUvarint(binary.AppendUvarint(nil, depth), 0)
		q, f, err := wire.DecodeLoad(payload)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		d.ObserveLoad(1<<32, q, f)
		s, _ := d.read(1 << 32)
		if got := treeplan.LoadUs(s.load); got != math.MaxInt64 {
			t.Errorf("depth %d: LoadUs = %d, want the saturated %d", depth, got, int64(math.MaxInt64))
		}
		if got := d.BoxesAt("tor:0")[0].Load; got != 63 {
			t.Errorf("depth %d: Box.Load = %d, want 63, the top bucket", depth, got)
		}
	}
}

// TestMonitorFeedsRTTTelemetry checks the live path behind LoadAware
// planning and congestion scoring: a box is scored against the sample its
// probe produced — the RTT, and the load the echo carried — only once
// that sample is in the deployment. A policy any sample trips migrates on
// the first scored one, and by then the RTT must be recorded and planners
// must see it as the box's Load.
func TestMonitorFeedsRTTTelemetry(t *testing.T) {
	reg := agg.NewRegistry()
	reg.Register("x", agg.Concat{})
	box, err := core.Start(core.Config{ID: 1 << 32, Registry: reg, Workers: 1, SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer box.Close()

	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: 1 << 32, Addr: box.Addr(), Switch: "tor:0"})
	type sample struct {
		rttUs int64
		load  uint8
	}
	scored := make(chan sample, 4)
	policy := treeplan.ReplanPolicy{HotLoadUs: 1, HotStreak: 1, CooldownTicks: 1 << 20}
	m := NewMonitor(d, 20*time.Millisecond, policy, func(id uint64, cause string) int {
		if cause != "migrate" {
			t.Errorf("healthy box %d acted on with cause %q", id, cause)
		}
		scored <- sample{rttUs(d, id), d.BoxesAt("tor:0")[0].Load}
		return 0
	})
	m.StartContext(t.Context())
	defer m.Stop()

	select {
	case got := <-scored:
		if got.rttUs == 0 {
			t.Fatal("the box was scored before the probe's RTT sample was in the deployment")
		}
		if got.load == 0 {
			t.Fatalf("scored box (RTT %dus) is idle to planners: Box.Load = 0", got.rttUs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("monitor never scored a probe outcome")
	}
}

// quiet is a congestion policy no heartbeat on an idle host reaches, for
// the tests that watch only the failure path.
var quiet = treeplan.ReplanPolicy{HotLoadUs: 1 << 40}

// failovers is an act callback that reports every box declared dead.
func failovers(failed chan<- uint64) func(id uint64, cause string) int {
	return func(id uint64, cause string) int {
		if cause == "failover" {
			failed <- id
		}
		return 0
	}
}

// loadBox is a box that answers heartbeats with a load the test sets,
// and stops answering (reading and dropping them) while silent.
type loadBox struct {
	srv    *transport.Server
	load   atomic.Int64 // queue depth to report
	silent atomic.Bool
}

func startLoadBox(t *testing.T) *loadBox {
	t.Helper()
	lb := &loadBox{}
	srv, err := transport.Listen(t.Context(), "127.0.0.1:0", func(c *transport.ServerConn, m *wire.Msg) {
		seq := m.Seq
		m.Release()
		if lb.silent.Load() {
			return
		}
		_ = c.Reply(&wire.Msg{Type: wire.THeartbeat, Source: 1 << 32, Seq: seq,
			Payload: wire.EncodeLoad(int(lb.load.Load()), 0)})
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb.srv = srv
	t.Cleanup(srv.Close)
	return lb
}

// TestMonitorScoresCongestion drives one box's congestion state through
// the monitor against a box whose reported load the test sets: a hot box
// is marked and migrated once; hot again inside its cooldown it is only
// marked; declared dead it fails over and loses its mark; revived it
// starts cold. Each box's prober owns that box's state, so nothing else
// is shared. Once the monitor and the box are closed, every echo's
// pooled payload is back in the pool.
func TestMonitorScoresCongestion(t *testing.T) {
	const id = 1 << 32
	before := bufpool.ReadStats()
	lb := startLoadBox(t)
	d := NewDeployment(nil)
	d.AddBox(BoxInfo{ID: id, Addr: lb.srv.Addr(), Switch: "tor:0"})

	// 100 queued tasks read 100,000 µs, far above HotLoadUs and any RTT;
	// an idle box reads its RTT alone, far under ColdLoadUs.
	const hotDepth = 100
	policy := treeplan.ReplanPolicy{HotLoadUs: 50_000, ColdLoadUs: 40_000, HotStreak: 2, CooldownTicks: 1 << 20}
	acts := make(chan string, 16)
	m := NewMonitor(d, 30*time.Millisecond, policy, func(got uint64, cause string) int {
		if got != id {
			t.Errorf("act on box %d, want %d", got, id)
		}
		acts <- cause
		return 1
	})
	congested, holds := obs.G("replan.congested_boxes"), obs.C("replan.cooldown_holds")
	congestedBefore, holdsBefore := congested.Value(), holds.Value()
	slow := func() bool { return d.BoxesAt("tor:0")[0].Slow }
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	next := func() string {
		t.Helper()
		select {
		case cause := <-acts:
			return cause
		case <-time.After(5 * time.Second):
			t.Fatal("the monitor never acted on the box")
			return ""
		}
	}
	m.StartContext(t.Context())
	defer m.Stop()

	lb.load.Store(hotDepth)
	if cause := next(); cause != "migrate" {
		t.Fatalf("a hot box got %q, want migrate", cause)
	}
	if !slow() || congested.Value()-congestedBefore != 1 {
		t.Fatalf("a migrated box must be marked: slow=%v congested=%+d", slow(), congested.Value()-congestedBefore)
	}

	lb.load.Store(0)
	await("the cooled box's mark clears", func() bool { return !slow() })
	lb.load.Store(hotDepth)
	await("the re-heated box is held", func() bool { return holds.Value() > holdsBefore })
	if !slow() || len(acts) != 0 || holds.Value() != holdsBefore+1 {
		t.Fatalf("hot again inside its cooldown, a box is only marked: slow=%v acts=%d holds=%+d", slow(), len(acts), holds.Value()-holdsBefore)
	}

	lb.silent.Store(true)
	if cause := next(); cause != "failover" {
		t.Fatalf("a silent box got %q, want failover", cause)
	}
	if !d.Dead(id) || slow() || congested.Value() != congestedBefore {
		t.Fatalf("a dead box must lose its mark: dead=%v slow=%v congested=%+d", d.Dead(id), slow(), congested.Value()-congestedBefore)
	}

	lb.load.Store(0)
	lb.silent.Store(false)
	await("the box revives", func() bool { return !d.Dead(id) })
	if slow() {
		t.Fatal("a revived box must start cold")
	}
	// The cooldown died with the box's old state: turning hot migrates.
	lb.load.Store(hotDepth)
	if cause := next(); cause != "migrate" {
		t.Fatalf("a revived box turning hot got %q, want migrate", cause)
	}
	if len(acts) != 0 {
		t.Fatalf("unexpected act %q", <-acts)
	}

	m.Stop()
	lb.srv.Close()
	await("the echoes' buffers are back in the pool", func() bool {
		after := bufpool.ReadStats()
		return after.Acquires()-before.Acquires() == after.Releases-before.Releases
	})
}
