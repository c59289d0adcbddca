package metrics

import (
	"fmt"
	"time"
)

// Figure is one row of a figure table (figures.All, tbfig.All): the ids of
// the reports one run yields. Figures that read the same simulations or
// sweep are one row, so asking for any or all of them runs the shared work
// once — the row is the sharing, there is no cache.
type Figure[O any] struct {
	IDs []string
	Run func(O) []*Report
}

// One is the row of a figure that shares its runs with no other.
func One[O any](id string, fn func(O) *Report) Figure[O] {
	return Figure[O]{IDs: []string{id}, Run: func(o O) []*Report { return []*Report{fn(o)} }}
}

// FigureIDs lists every id of the table, in table order.
func FigureIDs[O any](table []Figure[O]) []string {
	var ids []string
	for _, row := range table {
		ids = append(ids, row.IDs...)
	}
	return ids
}

// Regenerate emits the report of each id in the order asked, running a row
// when the first of its ids comes up and never again: took is that run's
// wall-clock, and zero for a report an earlier id's run already produced.
// An id no row yields is an error, returned before anything runs.
func Regenerate[O any](table []Figure[O], ids []string, o O, emit func(r *Report, took time.Duration)) error {
	rows := make(map[string]Figure[O])
	for _, row := range table {
		for _, id := range row.IDs {
			rows[id] = row
		}
	}
	for _, id := range ids {
		if _, ok := rows[id]; !ok {
			return fmt.Errorf("unknown figure %q", id)
		}
	}
	ready := make(map[string]*Report)
	for _, id := range ids {
		var took time.Duration
		if ready[id] == nil {
			start := time.Now()
			for _, r := range rows[id].Run(o) {
				ready[r.ID] = r
			}
			took = time.Since(start)
		}
		if ready[id] == nil {
			panic(fmt.Sprintf("metrics: the row of %v did not yield %q", rows[id].IDs, id))
		}
		emit(ready[id], took)
	}
	return nil
}
