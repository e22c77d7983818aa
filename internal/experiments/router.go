package experiments

import (
	"fmt"

	"grouter/internal/cluster"
	"grouter/internal/router"
	"grouter/internal/sim"
	"grouter/internal/trace"
)

// routedReplay replays one generated trace through the driving workflow on
// a scale pod (a 2-node DGX-V100 cluster, autoscaler on, batched admission),
// optionally with the scored front-door router, and returns the replay stats
// plus the router's counters.
func routedReplay(pattern trace.Pattern, requests int, routed bool) (cluster.ReplayStats, router.Stats) {
	e := sim.NewEngine()
	defer e.Close()
	app := scalePod(0, e)
	var rt *router.Router
	if routed {
		rt = router.New(app, router.DefaultConfig())
	}
	st := replay(app, scaleArrivals(pattern, requests), cluster.ReplaySpec{Quantum: ScaleQuantum})
	var rs router.Stats
	if rt != nil {
		rs = rt.Stats
	}
	return st, rs
}

// RouterTable compares placement-only admission (the cluster's round-robin
// instance selection) against the scored front-door router on the same
// traces: per pattern, the identical arrival trace replayed both ways.
// Everything is measured in virtual time, so the table is byte-identical
// across runs of the same build.
func RouterTable(requests int) *Table {
	t := &Table{
		ID:    "ext-router",
		Title: "Gateway-grade routing (extension): routed vs placement-only admission, driving workflow",
		Columns: []string{"pattern", "admission", "requests",
			"tput(req/s)", "p50(ms)", "p99(ms)", "routed", "refreshes"},
	}
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		for _, routed := range []bool{false, true} {
			name := "placement-only"
			if routed {
				name = "routed"
			}
			st, rs := routedReplay(p, requests, routed)
			t.Rows = append(t.Rows, []string{
				p.String(), name, fmt.Sprint(st.Requests),
				fmt.Sprintf("%.1f", st.Throughput), ms(st.P50), ms(st.P99),
				fmt.Sprint(rs.Decisions), fmt.Sprint(rs.Refreshes),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): scored worker admission (free mem, queue depth, EWMA latency, util)",
		"placement-only = round-robin over autoscaled instance pools; routed = top-3 weighted-random scored pick",
		fmt.Sprintf("same traces both ways (seed 42, 500 req/s mean, %v admission windows); autoscaler on", ScaleQuantum))
	return t
}
