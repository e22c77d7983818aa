package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// SpanStats runs the traffic workflow under GROUTER with critical-path
// accounting enabled and reports, per request, how the end-to-end latency
// divides into the obs bucket categories. The bucket sum equals E2E by
// construction (the critical chain tiles the request window), which the
// trailing note verifies.
func SpanStats() *cluster.Breakdown {
	e := sim.NewEngine()
	defer e.Close()
	mk := func(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) }
	c := cluster.New(e, topology.DGXV100(), 1, mk)
	app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: -1})
	bd := app.EnableBreakdown()
	replay(app, trace.Generate(trace.Spec{
		Pattern: trace.Bursty, Duration: 4 * time.Second, MeanRPS: 6, Seed: 1,
	}), cluster.ReplaySpec{})
	return bd
}

// SpanStatsTable renders SpanStats as a printable per-request table.
func SpanStatsTable() *Table {
	bd := SpanStats()
	t := &Table{
		ID:    "span-stats",
		Title: "Per-request critical-path latency breakdown (traffic on grouter)",
		Columns: []string{"req", "e2e(ms)", "setup", "queue", "transfer",
			"retry", "migrate", "compute", "defer-wait", "shed", "other",
			"sum(ms)"},
	}
	var maxErr time.Duration
	for _, rb := range bd.Requests {
		row := []string{fmt.Sprintf("%d", rb.Seq), ms(rb.E2E())}
		for c := obs.Category(0); c < obs.NumBuckets; c++ {
			row = append(row, ms(rb.Buckets[c]))
		}
		row = append(row, ms(rb.Sum()))
		t.Rows = append(t.Rows, row)
		err := rb.E2E() - rb.Sum()
		if err < 0 {
			err = -err
		}
		if err > maxErr {
			maxErr = err
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d requests; max |e2e - bucket sum| = %v (buckets tile the critical path)",
			len(bd.Requests), maxErr))
	return t
}
