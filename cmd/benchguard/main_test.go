package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFileBothMetrics(t *testing.T) {
	p := writeBench(t, "run.txt", strings.Join([]string{
		"goos: linux",
		"BenchmarkEcho-8   200   12052 ns/op   160 B/op   2 allocs/op",
		"BenchmarkEcho-8   200   12100 ns/op   164 B/op   2 allocs/op",
		"BenchmarkTimeOnly-8   100   5000 ns/op",
		"not a benchmark line",
	}, "\n"))
	got, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	echo := got["BenchmarkEcho"]
	if echo.bop.mean() != 162 {
		t.Errorf("BenchmarkEcho B/op mean = %v, want 162", echo.bop.mean())
	}
	if echo.nsop.mean() != 12076 || echo.nsop.fastest() != 12052 {
		t.Errorf("BenchmarkEcho ns/op mean, fastest = %v, %v, want 12076, 12052", echo.nsop.mean(), echo.nsop.fastest())
	}
	to := got["BenchmarkTimeOnly"]
	if to.nsop.n != 1 || to.bop.n != 0 {
		t.Errorf("BenchmarkTimeOnly samples = {bop:%d nsop:%d}, want {0, 1}", to.bop.n, to.nsop.n)
	}
}

// mk is a sample of the given readings.
func mk(vs ...float64) sample {
	var s sample
	for _, v := range vs {
		s.add(v)
	}
	return s
}

func TestCompareGates(t *testing.T) {
	cases := []struct {
		name            string
		got, want       sample
		maxGrowth       float64
		floor           float64
		fail, suppessed bool
	}{
		// 25% over a large baseline trips the B/op-style gate.
		{"bop regression", mk(1300), mk(1000), 0.25, 16, true, false},
		{"bop within gate", mk(1200), mk(1000), 0.25, 16, false, false},
		// The looser 50% time gate passes a 40% slowdown and fails 60%.
		{"nsop within gate", mk(14000), mk(10000), 0.5, 1000, false, false},
		{"nsop regression", mk(16000), mk(10000), 0.5, 1000, true, false},
		// Floors: a tiny baseline only fails past the absolute slack.
		{"nsop under floor", mk(900), mk(100), 0.5, 1000, false, false},
		{"nsop past floor", mk(1200), mk(100), 0.5, 1000, true, false},
		{"bop under floor", mk(17), mk(2), 0.25, 16, false, false},
		// A metric missing on either side is not comparable.
		{"no fresh readings", sample{}, mk(100), 0.5, 1000, false, true},
		{"no baseline readings", mk(100), sample{}, 0.5, 1000, false, true},
	}
	for _, c := range cases {
		line := compare("BenchmarkX", "u/op", c.got, c.want, sample.mean, c.maxGrowth, c.floor)
		if c.suppessed {
			if line != "" {
				t.Errorf("%s: got %q, want no output", c.name, line)
			}
			continue
		}
		if gotFail := strings.Contains(line, "FAIL"); gotFail != c.fail {
			t.Errorf("%s: fail=%v, want %v (line %q)", c.name, gotFail, c.fail, line)
		}
	}
}

// TestTimeGateReadsTheFastestRun: host noise only ever adds time, so two
// slow repetitions out of three must not fail a benchmark whose fastest
// run matches the baseline's — and a run whose fastest is slow still fails.
func TestTimeGateReadsTheFastestRun(t *testing.T) {
	base, noisy, slow := mk(11200, 10800, 12100), mk(29000, 11000, 24000), mk(29000, 17000, 24000)
	if line := compare("BenchmarkX", "ns/op", noisy, base, sample.fastest, 0.5, 1000); strings.Contains(line, "FAIL") {
		t.Errorf("fastest 11000 vs 10800 failed: %q", line)
	}
	if line := compare("BenchmarkX", "ns/op", noisy, base, sample.mean, 0.5, 1000); !strings.Contains(line, "FAIL") {
		t.Errorf("the mean of the same readings should trip, or the case proves nothing: %q", line)
	}
	if line := compare("BenchmarkX", "ns/op", slow, base, sample.fastest, 0.5, 1000); !strings.Contains(line, "FAIL") {
		t.Errorf("fastest 17000 vs 10800 passed: %q", line)
	}
}

func TestParseFileStripsProcSuffix(t *testing.T) {
	p := writeBench(t, "run.txt", "BenchmarkEcho-16 10 100 ns/op 8 B/op 1 allocs/op\n")
	got, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkEcho"]; !ok {
		t.Fatalf("keys = %v, want BenchmarkEcho", got)
	}
}
