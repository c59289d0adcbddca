package simexp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"netagg/internal/metrics"
	"netagg/internal/strategies"
	"netagg/internal/topology"
	"netagg/internal/workload"
)

// fingerprint renders every behavioural metric of a run to an exact byte
// string: float64 values are emitted as raw bit patterns, so even one ULP
// of drift (a changed summation order, a different flow creation order)
// changes the fingerprint. Allocator work counters (Stats.Alloc) are
// deliberately excluded: they measure how much work the allocator did, not
// what the network did, and differ between the incremental and
// FullRecompute modes that oracle_test.go compares.
func fingerprint(res *Result) string {
	var sb strings.Builder
	dump := func(name string, s *metrics.Sample) {
		fmt.Fprintf(&sb, "%s[%d]:", name, s.Len())
		for _, v := range s.Values() {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(v))
		}
		sb.WriteByte('\n')
	}
	dump("all", res.AllFCT)
	dump("bg", res.BackgroundFCT)
	dump("agg", res.AggFCT)
	dump("job", res.JobFCT)
	dump("link", res.LinkMB)
	fmt.Fprintf(&sb, "duration: %016x\n", math.Float64bits(res.Duration))
	fmt.Fprintf(&sb, "events: %d\n", res.Stats.Events)
	return sb.String()
}

// seededRun builds topology, workload, and deployment from scratch and
// simulates one NetAgg sweep — the full path the paper's FCT figures
// take (workload → strategies → simnet → metrics).
func seededRun(t *testing.T, seed int64) string {
	t.Helper()
	topo, err := topology.BuildClos(topology.SmallClos())
	if err != nil {
		t.Fatal(err)
	}
	strategies.DeployTiers(topo, strategies.TierAll, strategies.DefaultBoxSpec())
	cfg := workload.Default()
	cfg.Seed = seed
	w := workload.Generate(topo, cfg)
	return fingerprint(Run(topo, w, strategies.NetAgg{}, Opts{}))
}

// TestSimulationDeterminism is the regression gate behind the
// determinism analyzer: the paper's figures (§5, Figs 8-14) are
// FCT-percentile sweeps, and reproducing them bit-for-bit requires the
// whole simulation path to be free of wall-clock reads, global
// randomness, and map-iteration-order dependence. Two runs with the same
// seed must produce byte-identical metrics; a different seed must not.
func TestSimulationDeterminism(t *testing.T) {
	first := seededRun(t, 1)
	second := seededRun(t, 1)
	if first != second {
		a, b := diffHead(first, second)
		t.Fatalf("same seed produced different metrics:\nrun1: %s\nrun2: %s", a, b)
	}

	other := seededRun(t, 2)
	if other == first {
		t.Fatal("different seed produced identical metrics; the seed is not reaching the workload")
	}
}

// diffHead returns the first differing lines of two fingerprints, to
// keep failure output readable.
func diffHead(a, b string) (string, string) {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return truncate(la[i]), truncate(lb[i])
		}
	}
	return truncate(a), truncate(b)
}

func truncate(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}
