package figures

import (
	"strings"
	"testing"
)

var small = Options{Scale: ScaleSmall, Seed: 1}

func TestScaleClosConfigs(t *testing.T) {
	if ScaleSmall.Clos().NumServers() != 64 {
		t.Fatal("small scale should be 64 servers")
	}
	if ScaleMedium.Clos().NumServers() != 256 {
		t.Fatal("medium scale should be 256 servers")
	}
	if ScaleFull.Clos().NumServers() != 1024 {
		t.Fatal("full scale should be 1024 servers")
	}
	if ScaleMedium.String() != "medium" {
		t.Fatal("unexpected scale name")
	}
}

func TestFig02Shape(t *testing.T) {
	r := Fig02(small)
	out := r.String()
	if !strings.Contains(out, "Fig 2") {
		t.Fatalf("missing title:\n%s", out)
	}
	// The table must contain one row per rate.
	if got := strings.Count(out, "\n"); got < 8 {
		t.Fatalf("too few rows:\n%s", out)
	}
}

func TestFig03HasAllConfigs(t *testing.T) {
	r := Fig03(small)
	out := r.String()
	for _, name := range []string{"FullBisec-10G", "Oversub-10G", "FullBisec-1G", "NetAgg", "Incremental-NetAgg"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing config %s:\n%s", name, out)
		}
	}
}

func TestFig06And07Run(t *testing.T) {
	reports := FigCDF(small)
	if len(reports) != 3 {
		t.Fatalf("the CDF row yielded %d reports, want fig06, fig07, fig09", len(reports))
	}
	for i, id := range []string{"fig06", "fig07", "fig09"} {
		r := reports[i]
		if r.ID != id || r.Table == nil || len(tableRows(t, r)) != len(cdfPercentiles) {
			t.Fatalf("report %d = %s, want %s with one row per percentile:\n%s", i, r.ID, id, r)
		}
	}
}

func TestFig08NetAggGainShrinksWithAlpha(t *testing.T) {
	r := Fig08(small)
	rows := tableRows(t, r)
	first, last := rows[0], rows[len(rows)-1]
	// Column order: alpha, rack, binary, chain, netagg, netagg_job. The
	// α → 1 convergence shows on the job-level metric (see DESIGN.md §8).
	if first[5] >= last[5] {
		t.Fatalf("netagg relative job FCT should grow with α: α=%.2g → %.3g, α=%.2g → %.3g",
			first[0], first[5], last[0], last[5])
	}
	if first[4] >= 1 || first[5] >= 1 {
		t.Fatalf("netagg should beat rack at α=%.2g (flow=%.3g job=%.3g)", first[0], first[4], first[5])
	}
	if last[5] > 1.5 {
		t.Fatalf("netagg job FCT should be near rack parity at α=1, got %.3g", last[5])
	}
}

func TestFig10MoreAggregatableMoreGain(t *testing.T) {
	r := Fig10(small)
	rows := tableRows(t, r)
	// NetAgg at full aggregatability should beat NetAgg at 20%.
	if rows[len(rows)-1][4] >= rows[0][4] {
		t.Fatalf("netagg gain should grow with aggregatable fraction: %v vs %v",
			rows[0], rows[len(rows)-1])
	}
}

func TestFig11NetAggBeatsRackAtEveryOversub(t *testing.T) {
	r := Fig11(small)
	for _, row := range tableRows(t, r) {
		// Column order: oversub, rack, binary, chain, netagg. The paper's
		// robust claim: NetAgg beats rack across the over-subscription
		// sweep, including full bisection ("beneficial even for networks
		// with full-bisection bandwidth").
		if row[4] >= 1 {
			t.Fatalf("netagg (%.3g) should beat rack at over-subscription 1:%g", row[4], row[0])
		}
	}
}

func TestFig12FullBeatsSingleTier(t *testing.T) {
	r := Fig12(small)
	rel := map[string]float64{}
	for _, row := range rawRows(t, r) {
		rel[row[0]] = parseF(t, row[1])
	}
	if rel["full"] > rel["tor-only"] {
		// Full deployment aggregates everywhere a single tier does and more.
		t.Fatalf("full deployment (%.3g) should beat tor-only (%.3g)", rel["full"], rel["tor-only"])
	}
}

func TestFig13And14Run(t *testing.T) {
	if r := Fig13(small); len(tableRows(t, r)) != 4 {
		t.Fatal("fig13 should have 4 over-subscription rows")
	}
	if r := Fig14(small); len(tableRows(t, r)) != 5 {
		t.Fatal("fig14 should have 5 straggler rows")
	}
}
