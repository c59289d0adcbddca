package tbfig

import (
	"strconv"
	"testing"
	"time"

	"netagg/internal/metrics"
)

// quick runs every testbed figure with a short measurement window so the
// full suite stays test-sized; the benchmarks run the full windows.
var quick = Options{Window: 700 * time.Millisecond, Seed: 1}

func TestFig15Shape(t *testing.T) {
	r := Fig15(quick)
	t.Log("\n" + r.String())
	rows := r.Table.Rows()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With enough leaves, more threads must give more throughput (virtual
	// cost sleeps overlap).
	last := rows[len(rows)-1]
	lo := parseCell(t, last[1])
	hi := parseCell(t, last[len(last)-1])
	if hi < lo*1.5 {
		t.Fatalf("thread scaling too weak: %v", last)
	}
}

func TestFig16And17Shape(t *testing.T) {
	both := Fig16And17(quick)
	if len(both) != 2 || both[0].ID != "fig16" || both[1].ID != "fig17" {
		t.Fatalf("the sweep row yielded %d reports, want fig16 and fig17", len(both))
	}
	r16, r17 := both[0], both[1]
	t.Log("\n" + r16.String())
	t.Log("\n" + r17.String())
	rows := r16.Table.Rows()
	// One sweep, two views: each table has the sweep's six client counts.
	if lat := r17.Table.Rows(); len(rows) != 6 || len(lat) != 6 || lat[5][0] != rows[5][0] {
		t.Fatalf("fig16 has %d rows and fig17 %d, want the sweep's six in both", len(rows), len(lat))
	}
	// At saturation netagg must clearly beat plain Solr (paper: 9.3×).
	lastRow := rows[len(rows)-1]
	solr := parseCell(t, lastRow[1])
	netagg := parseCell(t, lastRow[2])
	if netagg < 3*solr {
		t.Fatalf("netagg %g should be several times solr %g", netagg, solr)
	}
}

func TestFig22Shape(t *testing.T) {
	r := Fig22(quick)
	t.Log("\n" + r.String())
	rel := map[string]float64{}
	for _, row := range r.Table.Rows() {
		rel[row[0]] = parseCell(t, row[1])
	}
	if rel["WC"] >= 1 {
		t.Fatalf("WordCount should speed up under NetAgg, rel=%g", rel["WC"])
	}
	if rel["TS"] < 0.7 {
		t.Fatalf("TeraSort should see little benefit, rel=%g", rel["TS"])
	}
	if rel["WC"] >= rel["TS"] {
		t.Fatalf("WC (%g) should gain more than TS (%g)", rel["WC"], rel["TS"])
	}
}

func TestFig25And26Shape(t *testing.T) {
	r25 := Fig25(quick)
	r26 := Fig26(quick)
	t.Log("\n" + r25.String())
	t.Log("\n" + r26.String())
	// Mean Solr share: high under fixed weights, near 50% under adaptive.
	meanShare := func(rows [][]string) float64 {
		sum, n := 0.0, 0
		for _, row := range rows[1:] { // skip the warm-up sample
			sum += parseCell(t, row[1])
			n++
		}
		return sum / float64(n)
	}
	fixed := meanShare(r25.Table.Rows())
	adaptive := meanShare(r26.Table.Rows())
	if fixed < 75 {
		t.Fatalf("fixed WFQ solr share = %.1f%%, expected starvation of hadoop", fixed)
	}
	if adaptive < 35 || adaptive > 65 {
		t.Fatalf("adaptive WFQ solr share = %.1f%%, expected ≈50%%", adaptive)
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig23And24Shape(t *testing.T) {
	r23 := Fig23(quick)
	t.Log("\n" + r23.String())
	rows := r23.Table.Rows()
	// Lower α (fewer keys) must give a bigger speedup.
	firstSpeedup := parseCell(t, rows[0][3])
	lastSpeedup := parseCell(t, rows[len(rows)-1][3])
	if firstSpeedup <= lastSpeedup {
		t.Fatalf("speedup should fall as α rises: %g vs %g", firstSpeedup, lastSpeedup)
	}

	r24 := Fig24(quick)
	t.Log("\n" + r24.String())
	rows = r24.Table.Rows()
	// Absolute times must grow with intermediate size for plain Hadoop.
	if parseCell(t, rows[len(rows)-1][1]) <= parseCell(t, rows[0][1]) {
		t.Fatalf("plain SRT should grow with data size:\n%s", r24.String())
	}
	// NetAgg must win at the largest size.
	if parseCell(t, rows[len(rows)-1][3]) <= 1 {
		t.Fatalf("netagg should win at the largest size:\n%s", r24.String())
	}
}

// TestFig18Through21Run is 40 measurement points, so it runs them at the
// shortest window that still fills every cell and asserts exactly that.
func TestFig18Through21Run(t *testing.T) {
	for _, fn := range []func(Options) *metrics.Report{Fig18, Fig19, Fig20, Fig21} {
		r := fn(Options{Window: 150 * time.Millisecond, Seed: 1})
		t.Log("\n" + r.String())
		if len(r.Table.Rows()) == 0 {
			t.Fatalf("figure %s has no rows", r.ID)
		}
		for _, row := range r.Table.Rows() {
			for _, cell := range row[1:] {
				if parseCell(t, cell) <= 0 {
					t.Fatalf("figure %s measured no throughput at %s:\n%s", r.ID, row[0], r)
				}
			}
		}
	}
}
