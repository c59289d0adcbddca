package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileKnownValues(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	s := NewSample(1)
	s.Add(5)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 5 {
			t.Errorf("P%g = %g, want 5", p, got)
		}
	}
}

func TestPercentileEmptyIsNaN(t *testing.T) {
	s := NewSample(0)
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatal("percentile of empty sample must be NaN")
	}
}

func TestPercentileClampsRange(t *testing.T) {
	s := NewSample(0)
	for _, v := range []float64{1, 2, 3} {
		s.Add(v)
	}
	if s.Percentile(-10) != 1 || s.Percentile(200) != 3 {
		t.Fatal("out-of-range percentiles must clamp")
	}
}

func TestPercentilePropertyWithinBounds(t *testing.T) {
	check := func(vs []float64) bool {
		if len(vs) == 0 {
			return true
		}
		for i := range vs {
			if math.IsNaN(vs[i]) || math.IsInf(vs[i], 0) {
				vs[i] = 0
			}
		}
		s := NewSample(0)
		for _, v := range vs {
			s.Add(v)
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 10, 50, 90, 99, 100} {
			v := s.Percentile(p)
			if v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
		}
		// Percentiles must be monotone in p.
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "alpha", "netagg", "rack")
	tb.AddRow(0.1, 0.25, 1.0)
	tb.AddRow(0.5, 0.6, 1.0)
	out := tb.String()
	if !strings.Contains(out, "== Fig X ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "alpha") || !strings.Contains(lines[3], "0.25") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}

func TestTableAlignsColumns(t *testing.T) {
	tb := NewTable("", "a", "long-header")
	tb.AddRow("xxxxxxxxxx", 1)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// The second column must start at the same offset in header and row.
	if strings.Index(lines[0], "long-header") != strings.Index(lines[2], "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
	// No trailing whitespace on any line.
	for i, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Fatalf("line %d has trailing spaces:\n%s", i, out)
		}
	}
}

// TestRegenerateRunsEachRowOnce pins what both figure CLIs are a loop
// over: reports come out in the order asked, a row that yields several
// of them runs once (the later ones cost nothing), a row nobody asked
// for does not run, and an unknown id is refused before anything runs.
func TestRegenerateRunsEachRowOnce(t *testing.T) {
	runs := map[string]int{}
	row := func(ids ...string) Figure[int] {
		return Figure[int]{IDs: ids, Run: func(int) []*Report {
			runs[ids[0]]++
			time.Sleep(time.Millisecond)
			var out []*Report
			for _, id := range ids {
				out = append(out, &Report{ID: id})
			}
			return out
		}}
	}
	table := []Figure[int]{row("a"), row("b", "c", "e"), One("d", func(int) *Report { return &Report{ID: "d"} })}

	var got []string
	var free []string
	err := Regenerate(table, []string{"c", "d", "b"}, 0, func(r *Report, took time.Duration) {
		got = append(got, r.ID)
		if took == 0 {
			free = append(free, r.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "c d b" || strings.Join(free, " ") != "b" {
		t.Fatalf("emitted %v (at no cost: %v), want c d b with only b free", got, free)
	}
	if runs["a"] != 0 || runs["b"] != 1 {
		t.Fatalf("row runs = %v, want the shared row once and the unasked row never", runs)
	}

	err = Regenerate(table, []string{"a", "nofig"}, 0, func(*Report, time.Duration) { t.Error("emitted before validation") })
	if err == nil || !strings.Contains(err.Error(), `unknown figure "nofig"`) || runs["a"] != 0 {
		t.Fatalf("err = %v, runs = %v; want the unknown id refused before any run", err, runs)
	}
	if ids := FigureIDs(table); strings.Join(ids, " ") != "a b c e d" {
		t.Fatalf("FigureIDs = %v, want table order", ids)
	}
}
