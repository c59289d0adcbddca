package figures

import (
	"strconv"
	"testing"

	"netagg/internal/metrics"
)

// Fig06 is the first report of the CDF row, for the tests that take one
// figure per function.
func Fig06(o Options) *metrics.Report { return FigCDF(o)[0] }

// rawRows returns the report table's cells as strings.
func rawRows(t *testing.T, r *metrics.Report) [][]string {
	t.Helper()
	rows := r.Table.Rows()
	if len(rows) == 0 {
		t.Fatalf("figure %s has no rows", r.ID)
	}
	return rows
}

// tableRows parses every cell of the report table as float64.
func tableRows(t *testing.T, r *metrics.Report) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, row := range rawRows(t, r) {
		vals := make([]float64, len(row))
		for i, c := range row {
			vals[i] = parseF(t, c)
		}
		out = append(out, vals)
	}
	return out
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}
