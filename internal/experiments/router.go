package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// routedReplay replays one generated trace through the driving workflow on
// a 2-node DGX-V100 cluster (autoscaler on, batched admission), optionally
// with the scored front-door router, and returns the replay stats plus the
// router's counters.
func routedReplay(pattern trace.Pattern, requests int, routed bool, highEvery int) (cluster.ReplayStats, router.Stats) {
	arrivals := trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, systems(42)[3].mk)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(scaleOut)
	var rt *router.Router
	if routed {
		rt = router.New(app, router.DefaultConfig())
	}
	var reqAt func(int) cluster.Request
	if highEvery > 0 {
		reqAt = func(i int) cluster.Request {
			if (i+1)%highEvery == 0 {
				return cluster.Request{QoS: cluster.QoSHigh}
			}
			return cluster.Request{}
		}
	}
	st := replay(app, arrivals, cluster.ReplaySpec{Quantum: ScaleQuantum, RequestAt: reqAt})
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
			st, rs := routedReplay(p, requests, routed, 0)
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

// RouterStatsRun replays the bursty pattern routed (one request in ten
// QoSHigh) and returns the replay stats and router counters — the data
// behind grouter-bench -router-stats.
func RouterStatsRun(requests int) (cluster.ReplayStats, router.Stats) {
	return routedReplay(trace.Bursty, requests, true, 10)
}
