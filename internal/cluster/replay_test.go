package cluster

import (
	"runtime"
	"testing"
	"time"

	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// TestReplayRetainedHeapPerRequest pins flat-memory replay: what a drained
// replay leaves reachable grows by at most 48 B per request. Only the exact
// percentile recorders (E2E, E2EClass: 16 B per request) may grow with the
// request count. It replays a Poisson 400 req/s trace through the split
// driving workflow on a 2-node DGX-V100 with the default elastic pools, at
// two sizes on fresh apps, and takes the slope so fixed costs cancel.
func TestReplayRetainedHeapPerRequest(t *testing.T) {
	retained := func(requests int) (bytes int64, n int) {
		arrivals := trace.Generate(trace.Spec{
			Pattern:  trace.Sporadic,
			Duration: time.Duration(requests) * time.Second / 400,
			MeanRPS:  400,
			Seed:     42,
		})
		e := sim.NewEngine()
		defer e.Close()
		c := New(e, topology.DGXV100(), 2, grouterPlane)
		app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		app.EnableElastic(DefaultElastic())
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := app.Replay(arrivals, ReplaySpec{Quantum: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		// The trace was live at the first reading; keep it live at the
		// second too, so its 8 B per request does not cancel the growth.
		runtime.KeepAlive(arrivals)
		if app.Completed != len(arrivals) {
			t.Fatalf("completed %d of %d", app.Completed, len(arrivals))
		}
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), len(arrivals)
	}
	// The first replay in the process also leaves the goroutine records of
	// its simulated processes behind for reuse; run one to pay for them.
	retained(2_000)
	small, ns := retained(2_000)
	large, nl := retained(12_000)
	slope := float64(large-small) / float64(nl-ns)
	t.Logf("retained %d B at %d requests, %d B at %d: %.1f B/request", small, ns, large, nl, slope)
	if slope > 48 {
		t.Errorf("replay retains %.1f B per request, want at most 48", slope)
	}
}
