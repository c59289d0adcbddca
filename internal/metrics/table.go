package metrics

import (
	"fmt"
	"strings"
)

// Table renders aligned text tables. Every experiment harness prints its
// figure's data through a Table so output is uniform and diffable against
// EXPERIMENTS.md.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row. Cells may be any values; they are formatted with %v
// except float64, which uses %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the formatted cell values, one slice per row. The returned
// slices are owned by the table; callers must not modify them.
func (t *Table) Rows() [][]string { return t.rows }

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(r []string) {
		var line strings.Builder
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[i], c)
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Report is the regenerated data of one figure, simulated or testbed.
type Report struct {
	// ID is the paper's figure identifier, e.g. "fig06".
	ID string
	// Title describes what the figure shows.
	Title string
	// Table holds the series the paper plots.
	Table *Table
	// Notes records deviations or parameter choices worth knowing.
	Notes string
}

// String renders the report.
func (r *Report) String() string {
	s := r.Table.String()
	if r.Notes != "" {
		s += "note: " + r.Notes + "\n"
	}
	return s
}
