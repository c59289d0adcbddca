package tbfig

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"netagg/internal/metrics"
)

// Tab01 regenerates Table 1: the lines of application-specific code needed
// to support each application on NetAgg. The paper counts per-application
// serialisation, aggregation wrapper and shim code; this repository's
// analogues are the per-application codec + aggregation functions and the
// deployment glue that wires the application's servers to the shim layers.
// Counts are taken from the source tree at run time; no option applies.
func Tab01(Options) *metrics.Report {
	root := repoRoot()
	rows := []struct {
		app, component string
		files          []string
	}{
		{"solr", "serialisation + agg functions", []string{"internal/agg/docs.go"}},
		{"solr", "shim/deployment glue", []string{"internal/search/deploy.go", "internal/search/proto.go"}},
		{"hadoop", "serialisation + combiner wrapper", []string{"internal/agg/kv.go"}},
		{"hadoop", "shim/deployment glue", []string{"internal/mapred/mapred.go"}},
	}
	table := metrics.NewTable(
		"Table 1 — lines of application-specific code in NetAgg",
		"application", "component", "LoC",
	)
	totals := map[string]int{}
	for _, r := range rows {
		loc := 0
		for _, f := range r.files {
			loc += countLines(filepath.Join(root, f))
		}
		totals[r.app] += loc
		table.AddRow(r.app, r.component, loc)
	}
	table.AddRow("solr", "total", totals["solr"])
	table.AddRow("hadoop", "total", totals["hadoop"])
	return &metrics.Report{
		ID:    "tab01",
		Title: "Lines of application-specific code in NetAgg",
		Table: table,
		Notes: "counts non-blank, non-comment lines; the generic platform (boxes, shims, planner) is shared",
	}
}

// repoRoot locates the module root from this source file's path.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	// file = <root>/internal/tbfig/tab01.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// countLines counts non-blank, non-comment lines of a Go source file; it
// returns 0 when the file cannot be read (e.g. stripped source trees).
func countLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "", strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			n++
		}
	}
	return n
}
