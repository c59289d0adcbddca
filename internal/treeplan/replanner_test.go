package treeplan_test

import (
	"sync"
	"testing"

	"netagg/internal/treeplan"
)

// TestHotTrackerHysteresisNoFlap pins the no-flap property: a load
// oscillating every tick around the entry threshold never enters the
// congested state, and once a box IS congested, oscillation above the
// exit threshold never clears it — only a sustained drop below
// ColdLoadUs does. Without the streak requirement and the two-threshold
// band, each oscillation would flip the mark and every flip would
// re-migrate the job's subtrees.
func TestHotTrackerHysteresisNoFlap(t *testing.T) {
	policy := treeplan.ReplanPolicy{HotLoadUs: 1000, ColdLoadUs: 500, HotStreak: 2}
	tr := treeplan.NewHotTracker(policy)
	const id = 1

	// Oscillation around the entry threshold: 1100, 900, 1100, 900, ...
	// never yields two consecutive hot ticks, so the box must stay cold.
	for i := 0; i < 20; i++ {
		load := int64(1100)
		if i%2 == 1 {
			load = 900
		}
		hot, changed := tr.Observe(id, load)
		if hot || changed {
			t.Fatalf("tick %d (load %d): hot=%v changed=%v, want cold and stable", i, load, hot, changed)
		}
	}

	// A sustained burst crosses the streak requirement exactly once.
	if hot, changed := tr.Observe(id, 1500); hot || changed {
		t.Fatalf("first sustained hot tick must not transition yet (hot=%v changed=%v)", hot, changed)
	}
	if hot, changed := tr.Observe(id, 1500); !hot || !changed {
		t.Fatalf("second sustained hot tick must transition (hot=%v changed=%v)", hot, changed)
	}

	// Oscillation inside the hysteresis band (900 is below HotLoadUs but
	// above ColdLoadUs) must hold the congested state.
	for i := 0; i < 20; i++ {
		load := int64(1100)
		if i%2 == 1 {
			load = 900
		}
		hot, changed := tr.Observe(id, load)
		if !hot || changed {
			t.Fatalf("band tick %d (load %d): hot=%v changed=%v, want hot and stable", i, load, hot, changed)
		}
	}

	// Even dips to ColdLoadUs must be sustained: a single cold tick
	// between hot ones resets the exit streak.
	for i := 0; i < 10; i++ {
		load := int64(400)
		if i%2 == 1 {
			load = 900
		}
		if hot, changed := tr.Observe(id, load); !hot || changed {
			t.Fatalf("mixed-exit tick %d: hot=%v changed=%v, want still hot", i, hot, changed)
		}
	}

	// Two consecutive cold ticks clear the mark.
	if hot, changed := tr.Observe(id, 400); !hot || changed {
		t.Fatalf("first cold tick must not clear yet (hot=%v changed=%v)", hot, changed)
	}
	if hot, changed := tr.Observe(id, 400); hot || !changed {
		t.Fatalf("second cold tick must clear (hot=%v changed=%v)", hot, changed)
	}
}

// TestHotTrackerCooldown verifies the cooldown window: StartCooldown
// holds for CooldownTicks observations and then expires.
func TestHotTrackerCooldown(t *testing.T) {
	tr := treeplan.NewHotTracker(treeplan.ReplanPolicy{HotLoadUs: 100, HotStreak: 1, CooldownTicks: 3})
	tr.Observe(7, 200) // creates state, transitions hot
	tr.StartCooldown(7)
	for i := 0; i < 3; i++ {
		if !tr.CoolingDown(7) {
			t.Fatalf("tick %d: cooldown expired early", i)
		}
		tr.Observe(7, 200)
	}
	if tr.CoolingDown(7) {
		t.Fatalf("cooldown must expire after CooldownTicks observations")
	}
}

// replanRecorder collects the Mark/Migrate calls a Replanner makes.
type replanRecorder struct {
	mu       sync.Mutex
	marks    []uint64
	clears   []uint64
	migrated []uint64
}

func (r *replanRecorder) mark(id uint64, congested bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if congested {
		r.marks = append(r.marks, id)
	} else {
		r.clears = append(r.clears, id)
	}
}

func (r *replanRecorder) migrate(id uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.migrated = append(r.migrated, id)
	return 2
}

// TestReplannerTicks drives a replanner over static telemetry with one
// hot box: the box must be marked and migrated exactly once (cooldown
// suppresses re-migration while it stays hot), then cleared once the
// telemetry cools.
func TestReplannerTicks(t *testing.T) {
	tel := treeplan.StaticTelemetry{
		1: {QueueDepth: 100}, // 100k µs — hot
		2: {QueueDepth: 1},   // idle
	}
	rec := &replanRecorder{}
	boxes := []treeplan.Box{{ID: 1, Switch: "tor:0"}, {ID: 2, Switch: "tor:0"}}
	r := treeplan.NewReplanner(treeplan.ReplannerConfig{
		Policy:    treeplan.ReplanPolicy{HotLoadUs: 20000, HotStreak: 2, CooldownTicks: 100},
		Telemetry: tel,
		Mark:      rec.mark,
		Migrate:   rec.migrate,
	})
	tick := func() {
		for _, b := range boxes {
			r.Observe(b)
		}
	}
	for i := 0; i < 10; i++ {
		tick()
	}
	rec.mu.Lock()
	marks, migrated := append([]uint64(nil), rec.marks...), append([]uint64(nil), rec.migrated...)
	rec.mu.Unlock()
	if len(marks) != 1 || marks[0] != 1 {
		t.Fatalf("marks = %v, want exactly one mark of box 1", marks)
	}
	if len(migrated) != 1 || migrated[0] != 1 {
		t.Fatalf("migrated = %v, want exactly one migration of box 1", migrated)
	}

	// Cool the box: after HotStreak cold ticks the mark clears.
	tel[1] = treeplan.LoadSignal{}
	for i := 0; i < 5; i++ {
		tick()
	}
	rec.mu.Lock()
	clears := append([]uint64(nil), rec.clears...)
	rec.mu.Unlock()
	if len(clears) != 1 || clears[0] != 1 {
		t.Fatalf("clears = %v, want exactly one clear of box 1", clears)
	}
}

// TestReplannerDeadBoxSkipped verifies dead boxes are left to the
// failure monitor: no mark, no migration, even at absurd load.
func TestReplannerDeadBoxSkipped(t *testing.T) {
	rec := &replanRecorder{}
	boxes := []treeplan.Box{{ID: 1, Switch: "tor:0", Dead: true}}
	r := treeplan.NewReplanner(treeplan.ReplannerConfig{
		Policy:    treeplan.ReplanPolicy{HotLoadUs: 1, HotStreak: 1},
		Telemetry: treeplan.StaticTelemetry{1: {QueueDepth: 1 << 20}},
		Mark:      rec.mark,
		Migrate:   rec.migrate,
	})
	for i := 0; i < 5; i++ {
		for _, b := range boxes {
			r.Observe(b)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.marks) != 0 || len(rec.migrated) != 0 {
		t.Fatalf("dead box acted on: marks=%v migrated=%v", rec.marks, rec.migrated)
	}
}

// TestReplannerStreakCountsSamples pins what a streak means: the scorer
// steps a box once per Observe — once per sample the heartbeat delivered —
// so one hot reading followed by cold ones never satisfies HotStreak 2,
// however much happens to other boxes in between. (The polling loop this
// replaced read the deployment on its own ticker, and a ticker faster than
// the heartbeat counted one hot sample twice.)
func TestReplannerStreakCountsSamples(t *testing.T) {
	tel := treeplan.StaticTelemetry{1: {QueueDepth: 100}, 2: {}}
	rec := &replanRecorder{}
	r := treeplan.NewReplanner(treeplan.ReplannerConfig{
		Policy:    treeplan.ReplanPolicy{HotLoadUs: 20000, HotStreak: 2},
		Telemetry: tel,
		Mark:      rec.mark,
		Migrate:   rec.migrate,
	})
	hot, idle := treeplan.Box{ID: 1}, treeplan.Box{ID: 2}
	r.Observe(hot) // the one hot sample
	tel[1] = treeplan.LoadSignal{}
	for i := 0; i < 50; i++ {
		r.Observe(idle) // other boxes' heartbeats do not advance box 1
		if i%10 == 9 {
			r.Observe(hot) // box 1's next samples are cold
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.marks) != 0 || len(rec.migrated) != 0 {
		t.Fatalf("one hot sample satisfied a two-sample streak: marks=%v migrated=%v", rec.marks, rec.migrated)
	}
}

// TestReplannerConcurrentProbers scores from one goroutine per box, as
// the monitor's probers do: every hot box is marked and migrated exactly
// once, and a box that dies congested has its mark cleared (a revived box
// re-enters cold, so nothing else would ever clear it).
func TestReplannerConcurrentProbers(t *testing.T) {
	const n = 8
	tel := treeplan.StaticTelemetry{}
	for id := uint64(1); id <= n; id++ {
		tel[id] = treeplan.LoadSignal{QueueDepth: 100}
	}
	rec := &replanRecorder{}
	r := treeplan.NewReplanner(treeplan.ReplannerConfig{
		Policy:    treeplan.ReplanPolicy{HotLoadUs: 20000, HotStreak: 2, CooldownTicks: 100},
		Telemetry: tel,
		Mark:      rec.mark,
		Migrate:   rec.migrate,
	})
	var wg sync.WaitGroup
	for id := uint64(1); id <= n; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r.Observe(treeplan.Box{ID: id})
			}
			r.Observe(treeplan.Box{ID: id, Dead: true})
		}(id)
	}
	wg.Wait()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.marks) != n || len(rec.migrated) != n || len(rec.clears) != n {
		t.Fatalf("marks=%v migrated=%v clears=%v, want each of the %d boxes once in each", rec.marks, rec.migrated, rec.clears, n)
	}
}

// TestPlanAvoidsSlowBoxes verifies the planner skeleton's congestion
// avoidance: a Slow box is avoided while its switch has a non-slow
// alternative, and used as a last resort when every box there is slow.
func TestPlanAvoidsSlowBoxes(t *testing.T) {
	topo := &slowTopo{
		path: []string{"tor:0"},
		boxes: map[string][]treeplan.Box{
			"tor:0": {{ID: 1, Switch: "tor:0", Slow: true}, {ID: 2, Switch: "tor:0"}},
		},
	}
	req := treeplan.NewRequest(42, 0, 0, "master", []string{"w0"})
	for hash := uint64(0); hash < 8; hash++ {
		req.Hash = hash
		tree := treeplan.OnPath{}.Plan(topo, req)
		chain := tree.Routes["w0"]
		if len(chain) != 1 || chain[0].ID != 2 {
			t.Fatalf("hash %d: chain = %+v, want the non-slow box 2", hash, chain)
		}
	}

	// All boxes slow: the switch still aggregates (slow beats none).
	topo.boxes["tor:0"][1].Slow = true
	tree := treeplan.OnPath{}.Plan(topo, req)
	if len(tree.Routes["w0"]) != 1 {
		t.Fatalf("all-slow switch must still be equipped, got %+v", tree.Routes["w0"])
	}
}

// slowTopo is a single-path test topology with explicit box lists.
type slowTopo struct {
	path  []string
	boxes map[string][]treeplan.Box
}

func (s *slowTopo) PathSwitches(_, _ string, _ uint64) []string { return s.path }
func (s *slowTopo) BoxesAt(sw string) []treeplan.Box            { return s.boxes[sw] }
