package experiments

import (
	"fmt"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// ShardedScaleTable replays generated traces over the scale-out fleet — 8
// independent grouter pods (2-node DGX-V100 each, driving workflow,
// autoscaler on) behind a round-robin front door — via the sharded parallel
// engine, and reports fleet-level throughput and latency percentiles plus
// the per-pod load spread per (pattern × scale) cell.
//
// The shard count is a pure execution knob: every value in the table derives
// from virtual time, so the table is byte-identical whatever `shards` is and
// whether the shards ran in parallel or sequentially —
// TestShardedScaleTableShardInvariant asserts exactly that. Wall-clock
// observations (per-shard utilization, speedup) intentionally never appear
// here; the CLI prints them separately under -shard-stats.
func ShardedScaleTable(requests, shards int) *Table {
	t := &Table{
		ID:    "ext-scale-shard",
		Title: "Trace replay on the scale-out fleet (extension): 8 grouter pods, sharded engine",
		Columns: []string{"pattern", "system", "topology", "pods", "requests",
			"tput(req/s)", "p50(ms)", "p99(ms)", "pod-p99 min(ms)", "pod-p99 max(ms)"},
	}
	small := requests / 10
	if small < 1 {
		small = 1
	}
	for _, pattern := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		for _, n := range []int{small, requests} {
			st := cluster.ShardedReplay(scaleArrivals(pattern, n), cluster.ShardedOptions{
				Shards:  shards,
				Quantum: ScaleQuantum,
			}, scalePod)
			lo, hi := st.PerPod[0].P99, st.PerPod[0].P99
			for _, p := range st.PerPod[1:] {
				if p.P99 < lo {
					lo = p.P99
				}
				if p.P99 > hi {
					hi = p.P99
				}
			}
			t.Rows = append(t.Rows, []string{
				pattern.String(), "grouter", "dgx-v100 x2", fmt.Sprint(st.Pods),
				fmt.Sprint(st.Requests), fmt.Sprintf("%.1f", st.Throughput),
				ms(st.P50), ms(st.P99), ms(lo), ms(hi),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension (not a paper figure): the fleet replay behind BenchmarkScaleReplaySharded",
		"front door routes request i to pod i mod 8; arrivals admitted in "+ScaleQuantum.String()+" windows with 10ms route latency",
		"values derive from virtual time only: the table is identical for any shard count and for parallel vs sequential execution")
	return t
}

// scalePod builds one pod of the scale-out fleet: the same 2-node DGX-V100
// grouter deployment the single-cluster ScaleTable replays.
func scalePod(pod int, e *sim.Engine) *cluster.App {
	c := cluster.New(e, topology.DGXV100(), 2, systems(42)[3].mk)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(scaleOut)
	return app
}

func scaleArrivals(pattern trace.Pattern, requests int) []time.Duration {
	return trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
}

// ShardedScaleRun replays the canonical full-size bursty cell once at the
// given shard count and returns the complete stats — including the
// wall-clock per-shard utilization deliberately kept out of the
// deterministic table. The CLI's -shard-stats mode prints it.
func ShardedScaleRun(requests, shards int) cluster.ShardedStats {
	return cluster.ShardedReplay(scaleArrivals(trace.Bursty, requests), cluster.ShardedOptions{
		Shards:  shards,
		Quantum: ScaleQuantum,
	}, scalePod)
}
