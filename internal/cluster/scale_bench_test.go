package cluster

import (
	"fmt"
	"testing"
	"time"

	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// scaleArrivals generates the canonical scale-replay schedule: a bursty
// Azure-pattern trace sized to ~`requests` arrivals at 500 req/s mean.
func scaleArrivals(requests int) []time.Duration {
	return trace.Generate(trace.Spec{
		Pattern:  trace.Bursty,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
}

// BenchmarkScaleReplay replays a ~100k-request bursty trace (5k under
// -short) through the driving workflow split across a 2-node DGX-V100
// cluster. It is the acceptance benchmark for the engine/cluster/netsim
// fast path; before/after numbers live in EXPERIMENTS.md.
func BenchmarkScaleReplay(b *testing.B) {
	requests := 100_000
	if testing.Short() {
		requests = 5_000
	}
	arrivals := scaleArrivals(requests)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		c := New(e, topology.DGXV100(), 2, grouterPlane)
		app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		app.EnableElastic(scaleOutOnly(4, 0))
		if _, err := app.Replay(arrivals, ReplaySpec{}); err != nil {
			b.Fatal(err)
		}
		if app.Completed != len(arrivals) {
			b.Fatalf("completed %d of %d", app.Completed, len(arrivals))
		}
		e.Close()
	}
}

// BenchmarkScaleReplaySharded replays the same canonical bursty trace over
// the 8-pod scale-out fleet at varying shard counts. Deterministic output is
// identical across sub-benchmarks (ShardedReplay's differential tests assert
// it); only wall-clock changes, so the shards=1 / shards=N ns/op ratio is
// the parallel speedup on the host. On a single-core host expect ~1× plus
// barrier overhead; see EXPERIMENTS.md for multi-core numbers.
func BenchmarkScaleReplaySharded(b *testing.B) {
	requests := 100_000
	if testing.Short() {
		requests = 5_000
	}
	arrivals := scaleArrivals(requests)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := ShardedReplay(arrivals, ShardedOptions{Shards: shards}, buildScalePod)
				if st.Completed != len(arrivals) {
					b.Fatalf("completed %d of %d", st.Completed, len(arrivals))
				}
			}
		})
	}
}
