package tbfig

import (
	"fmt"
	"time"

	"netagg/internal/agg"
	"netagg/internal/metrics"
	"netagg/internal/testbed"
	"netagg/internal/transport"
	"netagg/internal/treeplan"
	"netagg/internal/wire"
)

// ExtFanout measures the paper's proposed one-to-many extension (§5):
// broadcasting a payload from the master to every worker, either directly
// (one copy per worker over the master's 1 Gbps uplink) or through the agg
// box overlay (one copy per on-path box, replicated at each hop). This is
// future work in the paper; the experiment shows the expected shape — the
// direct broadcast serialises on the master uplink while the box-assisted
// one parallelises across the boxes' 10 Gbps links.
func ExtFanout(o Options) *metrics.Report {
	payloadSizes := []int{64 << 10, 256 << 10, 1 << 20}
	table := metrics.NewTable(
		"Extension — broadcast to 8 workers: direct vs box-assisted fanout",
		"payload_KB", "direct_s", "fanout_s", "speedup",
	)
	for _, size := range payloadSizes {
		direct := broadcastOnce(o, false, size)
		fanout := broadcastOnce(o, true, size)
		table.AddRow(size/1024, direct.Seconds(), fanout.Seconds(), direct.Seconds()/fanout.Seconds())
	}
	return &metrics.Report{
		ID:    "ext-fanout",
		Title: "One-to-many distribution through agg boxes (§5 future work)",
		Table: table,
		Notes: "2 racks × 4 workers, master on a 1G link, boxes on 10G; time until every worker holds the payload",
	}
}

// broadcastOnce deploys a testbed, broadcasts one payload to every worker,
// and returns the time until the last delivery.
func broadcastOnce(o Options, boxes bool, size int) time.Duration {
	reg := agg.NewRegistry()
	reg.Register("bcast", agg.Concat{})
	per := 0
	if boxes {
		per = 1
	}
	tb, err := testbed.New(testbed.Config{
		Racks:          2,
		WorkersPerRack: 4,
		BoxesPerSwitch: per,
		EdgeGbps:       1,
		BoxGbps:        10,
		Registry:       reg,
		Planner:        treeplan.OnPath{},
		Seed:           1,
	})
	if err != nil {
		panic(fmt.Sprintf("tbfig: %v", err))
	}
	defer tb.Close()

	delivered := make(chan struct{}, 64)
	targets := make(map[string]string)
	var servers []*transport.Server
	for _, host := range tb.WorkerHosts() {
		srv, err := transport.Listen(nil, "127.0.0.1:0",
			func(_ *transport.ServerConn, m *wire.Msg) {
				m.Release() // only the arrival matters, not the payload
				if m.Type == wire.TData {
					delivered <- struct{}{}
				}
			}, transport.ServerOptions{})
		if err != nil {
			panic(err)
		}
		servers = append(servers, srv)
		targets[host] = srv.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	payload := make([]byte, size)
	start := time.Now()
	if err := tb.Master.Fanout("bcast", 1, payload, targets); err != nil {
		panic(fmt.Sprintf("tbfig: fanout: %v", err))
	}
	for i := 0; i < len(targets); i++ {
		select {
		case <-delivered:
		case <-time.After(60 * time.Second):
			panic("tbfig: broadcast did not complete")
		}
	}
	return time.Since(start)
}
