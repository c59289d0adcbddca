package tbfig

import (
	"fmt"

	"netagg/internal/metrics"
)

// Fig18 regenerates Figure 18: network throughput against the sample
// output ratio α with a fixed client population. Plain Solr is
// network-bound regardless of α; NetAgg's benefit shrinks as α grows
// because the frontend link carries α of the backend volume.
func Fig18(o Options) *metrics.Report {
	ratios := []float64{0.05, 0.10, 0.25, 0.50, 0.75, 1.0}
	table := metrics.NewTable(
		"Fig 18 — network throughput (Gbps-equiv) vs output ratio α (Solr, 16 clients)",
		"alpha", "solr", "netagg",
	)
	for _, ratio := range ratios {
		row := []interface{}{ratio}
		for _, boxes := range []int{0, 1} {
			rig, err := newSearchRig(searchOpts{
				racks: 1, backends: 8, boxes: boxes, sampleRatio: ratio,
			})
			if err != nil {
				panic(fmt.Sprintf("tbfig: %v", err))
			}
			r := runClients(rig, 16, 40, true, o.window(), o.seed())
			row = append(row, gbpsEquiv(r.bytes, r.duration))
			rig.close()
		}
		table.AddRow(row...)
	}
	return &metrics.Report{
		ID:    "fig18",
		Title: "Network throughput against output ratio (Solr)",
		Table: table,
		Notes: "plain Solr's column is flat (α only changes what the frontend discards)",
	}
}

// Fig19 regenerates Figure 19: aggregate throughput against the number of
// backends per rack, for one rack with one agg box versus two racks with
// one agg box each. Throughput scales with backends and doubles with the
// second rack.
func Fig19(o Options) *metrics.Report {
	backendCounts := []int{2, 4, 6, 8}
	table := metrics.NewTable(
		"Fig 19 — throughput (Gbps-equiv) vs backends per rack",
		"backends_per_rack", "1rack_1box", "2racks_2boxes",
	)
	for _, n := range backendCounts {
		row := []interface{}{n}
		for _, racks := range []int{1, 2} {
			rig, err := newSearchRig(searchOpts{
				racks: racks, backends: n, boxes: 1, sampleRatio: 0.05,
			})
			if err != nil {
				panic(fmt.Sprintf("tbfig: %v", err))
			}
			r := runClients(rig, 16, 40, true, o.window(), o.seed())
			row = append(row, gbpsEquiv(r.bytes, r.duration))
			rig.close()
		}
		table.AddRow(row...)
	}
	return &metrics.Report{
		ID:    "fig19",
		Title: "Throughput against number of backend servers per rack (Solr)",
		Table: table,
		Notes: "two racks also traverse the aggregation-switch box; throughput is the sum over boxes",
	}
}

// Fig20 regenerates Figure 20: agg box scale-out for the CPU-intensive
// categorise aggregation — one versus two boxes attached to the same
// switch, with requests hash-split between them (§4.2.1 "Scale out").
func Fig20(o Options) *metrics.Report {
	clientCounts := []int{2, 4, 8, 16, 32}
	table := metrics.NewTable(
		"Fig 20 — throughput (Gbps-equiv) vs clients, categorise (box scale-out)",
		"clients", "1box", "2boxes",
	)
	rows := make(map[int][]interface{})
	for _, n := range clientCounts {
		rows[n] = []interface{}{n}
	}
	for _, boxes := range []int{1, 2} {
		rig, err := newSearchRig(searchOpts{
			racks: 1, backends: 8, boxes: boxes, categorise: true,
			boxWorkers: 2,
		})
		if err != nil {
			panic(fmt.Sprintf("tbfig: %v", err))
		}
		for _, n := range clientCounts {
			r := runClients(rig, n, 40, true, o.window(), o.seed())
			rows[n] = append(rows[n], gbpsEquiv(r.bytes, r.duration))
		}
		rig.close()
	}
	for _, n := range clientCounts {
		table.AddRow(rows[n]...)
	}
	return &metrics.Report{
		ID:    "fig20",
		Title: "Agg box scale-out for CPU-intensive aggregation (Solr categorise)",
		Table: table,
		Notes: "categorise cost emulated at 500µs/KB (single-CPU host); requests hash to one of the boxes",
	}
}

// Fig21 regenerates Figure 21: throughput against the number of scheduler
// threads on a single box, for the cheap sample function (network-bound,
// flat) and the CPU-intensive categorise function (scales with the pool).
func Fig21(o Options) *metrics.Report {
	poolSizes := []int{1, 2, 4, 8, 16}
	table := metrics.NewTable(
		"Fig 21 — throughput (Gbps-equiv) vs box CPU cores (scheduler pool size)",
		"cores", "sample", "categorise",
	)
	rows := make(map[int][]interface{})
	for _, w := range poolSizes {
		rows[w] = []interface{}{w}
	}
	for _, mode := range []struct {
		name       string
		categorise bool
	}{{"sample", false}, {"categorise", true}} {
		for _, w := range poolSizes {
			rig, err := newSearchRig(searchOpts{
				racks: 1, backends: 8, boxes: 1, boxWorkers: w,
				sampleRatio: 0.05, categorise: mode.categorise,
			})
			if err != nil {
				panic(fmt.Sprintf("tbfig: %v", err))
			}
			r := runClients(rig, 16, 40, true, o.window(), o.seed())
			rows[w] = append(rows[w], gbpsEquiv(r.bytes, r.duration))
			rig.close()
		}
	}
	for _, w := range poolSizes {
		table.AddRow(rows[w]...)
	}
	return &metrics.Report{
		ID:    "fig21",
		Title: "Throughput against number of CPU cores (Solr)",
		Table: table,
		Notes: "cores emulated by scheduler pool size with virtual task cost (single-CPU host, see DESIGN.md)",
	}
}
