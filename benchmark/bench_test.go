package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary be the yardstick child, as the command is:
// runWorkload starts os.Executable() with yardstickArg.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == yardstickArg {
		yardstickMain()
		return
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSliceRates(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{0, 100 * ms},         // wholly in slice 0
		{150 * ms, 250 * ms},  // half in slice 0, half in slice 1
		{390 * ms, 410 * ms},  // half in slice 1, half in slice 2
		{950 * ms, 1050 * ms}, // half in slice 4, half past the window
	}
	got := sliceRates(samples, time.Second, 5)
	want := []float64{1.5 / 0.2, 1.0 / 0.2, 0.5 / 0.2, 0, 0.5 / 0.2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("sliceRates = %v, want %v", got, want)
		}
	}
}

// One burst slice, fast or slow, must not decide jobs_per_s: the rate is
// the median of the five slices.
func TestJobsPerSIgnoresOneBurst(t *testing.T) {
	var r passResult
	r.window = 5 * time.Second
	// Slices of 1 s holding 10, 11, 50, 12 and 1 jobs, each job filling
	// its share of its slice exactly.
	for slice, n := range []int{10, 11, 50, 12, 1} {
		width := time.Second / time.Duration(n)
		for i := 0; i < n; i++ {
			start := time.Duration(slice)*time.Second + time.Duration(i)*width
			r.samples = append(r.samples, sample{start, start + width})
		}
	}
	if got := r.jobsPerS(); math.Abs(got-11) > 1e-6 {
		t.Errorf("jobsPerS = %v, want 11 (the median of 10, 11, 50, 12 and 1)", got)
	}
}

// The slowdown is the median of the kernel runs begun inside the pass over
// the nominal; runs outside it do not count, and too few say nothing.
func TestSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int, cpu float64) yardSample {
		return yardSample{t0.Add(time.Duration(ms) * time.Millisecond), time.Duration(cpu * yardNominalNs)}
	}
	samples := []yardSample{at(-50, 9), at(0, 1.0), at(50, 1.2), at(100, 5), at(150, 1.1), at(200, 1.3), at(250, 9)}
	if got := slowdown(samples, t0, t0.Add(250*time.Millisecond)); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("slowdown = %v, want 1.2 (the median of 1.0, 1.2, 5, 1.1 and 1.3)", got)
	}
	if got := slowdown(samples, t0, t0.Add(100*time.Millisecond)); got != 0 {
		t.Errorf("slowdown over two runs = %v, want 0", got)
	}
}

// The yardstick's merge must be a merge: sorted union, equal keys summed.
func TestMergeKV(t *testing.T) {
	var a, b, want []byte
	a = appendKV(appendKV(a, "k1", 1), "k3", 3)
	b = appendKV(appendKV(appendKV(b, "k2", 20), "k3", 30), "k4", 40)
	want = appendKV(appendKV(appendKV(appendKV(want, "k1", 1), "k2", 20), "k3", 33), "k4", 40)
	if got := mergeKV(a, b, nil); !bytes.Equal(got, want) {
		t.Errorf("mergeKV = %q, want %q", got, want)
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmokeAllWorkloads runs all four workloads with passes of a few
// hundred milliseconds and holds the command to what BENCHMARK.json says
// it prints, so the two cannot drift apart.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	checkDefs := func(kind string, js []jsonMetric, defs []metricDef) {
		t.Helper()
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(js), len(defs))
		}
		for i, def := range defs {
			if js[i] != (jsonMetric{def.name, def.unit, def.better, def.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command %+v", kind, i, js[i], def)
			}
		}
	}
	checkDefs("end_to_end", spec.EndToEnd, endToEnd)
	checkDefs("per_layer", spec.PerLayer, perLayer)

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := runWorkload(newRunConfig(w, 1, 1.2, -1, t.TempDir()), &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			var printed []string
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) != 3 || !nameRE.MatchString(f[0]) || !unitRE.MatchString(f[2]) {
					t.Errorf("metric line %q is not `name value unit`", line)
					continue
				}
				printed = append(printed, f[0])
			}
			var want []string
			for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				want = append(want, def.name)
			}
			if strings.Join(printed, " ") != strings.Join(want, " ") {
				t.Errorf("printed metrics\n%v\nwant each of these once, in order\n%v", printed, want)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("result line has %d metrics, want %d", len(rep.Metrics), len(want))
			}
		})
	}
}
