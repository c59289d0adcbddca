package treeplan_test

import (
	"testing"

	"netagg/internal/treeplan"
)

// TestHysteresisNoFlap pins the no-flap property: a load oscillating
// every sample around the entry threshold never enters the congested
// state, and once a box IS congested, oscillation above the exit
// threshold never clears it — only a sustained drop below ColdLoadUs
// does. Without the streak requirement and the two-threshold band, each
// oscillation would flip the mark and every flip would re-migrate the
// job's subtrees.
func TestHysteresisNoFlap(t *testing.T) {
	policy := treeplan.ReplanPolicy{HotLoadUs: 1000, ColdLoadUs: 500, HotStreak: 2}
	var h treeplan.Hysteresis
	step := func(load int64) (hot, changed bool) {
		hot, changed, _ = h.Step(policy, load)
		return hot, changed
	}

	// Oscillation around the entry threshold: 1100, 900, 1100, 900, ...
	// never yields two consecutive hot samples, so the box must stay cold.
	for i := 0; i < 20; i++ {
		load := int64(1100)
		if i%2 == 1 {
			load = 900
		}
		if hot, changed := step(load); hot || changed {
			t.Fatalf("sample %d (load %d): hot=%v changed=%v, want cold and stable", i, load, hot, changed)
		}
	}

	// A sustained burst crosses the streak requirement exactly once.
	if hot, changed := step(1500); hot || changed {
		t.Fatalf("first sustained hot sample must not transition yet (hot=%v changed=%v)", hot, changed)
	}
	if hot, changed := step(1500); !hot || !changed {
		t.Fatalf("second sustained hot sample must transition (hot=%v changed=%v)", hot, changed)
	}

	// Oscillation inside the hysteresis band (900 is below HotLoadUs but
	// above ColdLoadUs) must hold the congested state.
	for i := 0; i < 20; i++ {
		load := int64(1100)
		if i%2 == 1 {
			load = 900
		}
		if hot, changed := step(load); !hot || changed {
			t.Fatalf("band sample %d (load %d): hot=%v changed=%v, want hot and stable", i, load, hot, changed)
		}
	}

	// Even dips to ColdLoadUs must be sustained: a single cold sample
	// between hot ones resets the exit streak.
	for i := 0; i < 10; i++ {
		load := int64(400)
		if i%2 == 1 {
			load = 900
		}
		if hot, changed := step(load); !hot || changed {
			t.Fatalf("mixed-exit sample %d: hot=%v changed=%v, want still hot", i, hot, changed)
		}
	}

	// Two consecutive cold samples clear the mark.
	if hot, changed := step(400); !hot || changed {
		t.Fatalf("first cold sample must not clear yet (hot=%v changed=%v)", hot, changed)
	}
	if hot, changed := step(400); hot || !changed {
		t.Fatalf("second cold sample must clear (hot=%v changed=%v)", hot, changed)
	}
}

// TestHysteresisStreakCountsSamples pins what a streak means: Step is
// one sample, so one hot sample followed by cold ones never satisfies
// HotStreak 2, however many cold samples follow. The box's owner steps
// it once per heartbeat echo, so a streak counts samples, never reads
// of one sample.
func TestHysteresisStreakCountsSamples(t *testing.T) {
	policy := treeplan.ReplanPolicy{HotLoadUs: 20000, HotStreak: 2}
	var h treeplan.Hysteresis
	if hot, changed, migrate := h.Step(policy, 100_000); hot || changed || migrate {
		t.Fatalf("one hot sample flipped a two-sample streak: hot=%v changed=%v migrate=%v", hot, changed, migrate)
	}
	for i := 0; i < 50; i++ {
		if hot, changed, migrate := h.Step(policy, 0); hot || changed || migrate {
			t.Fatalf("cold sample %d after one hot one: hot=%v changed=%v migrate=%v", i, hot, changed, migrate)
		}
	}
}

// TestHysteresisCooldown verifies the cooldown window: a flip to hot
// migrates and opens the window, a flip to hot inside it only marks, and
// once CooldownTicks samples have passed the next flip migrates again.
func TestHysteresisCooldown(t *testing.T) {
	policy := treeplan.ReplanPolicy{HotLoadUs: 100, ColdLoadUs: 50, HotStreak: 1, CooldownTicks: 4}
	var h treeplan.Hysteresis
	want := []struct {
		load                  int64
		hot, changed, migrate bool
	}{
		{200, true, true, true},   // first flip: migrate, window opens (4 samples)
		{0, false, true, false},   // 3 left
		{200, true, true, false},  // 2 left: hot again inside the window, mark only
		{0, false, true, false},   // 1 left
		{200, true, true, true},   // window expired on this sample: migrate again
		{200, true, false, false}, // staying hot is no flip
	}
	for i, w := range want {
		hot, changed, migrate := h.Step(policy, w.load)
		if hot != w.hot || changed != w.changed || migrate != w.migrate {
			t.Fatalf("sample %d (load %d): hot=%v changed=%v migrate=%v, want %v %v %v",
				i, w.load, hot, changed, migrate, w.hot, w.changed, w.migrate)
		}
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
