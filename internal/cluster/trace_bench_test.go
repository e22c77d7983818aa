package cluster

import (
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// benchArrivals is a fixed 16-request bursty-ish schedule.
func benchArrivals() []time.Duration {
	out := make([]time.Duration, 16)
	for i := range out {
		out[i] = time.Duration(i) * 125 * time.Millisecond
	}
	return out
}

func benchSpanTracing(b *testing.B, traced bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		if traced {
			obs.Attach(e)
		}
		c := New(e, topology.DGXV100(), 1, grouterPlane)
		app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: -1})
		if _, err := app.Replay(benchArrivals(), ReplaySpec{}); err != nil {
			b.Fatal(err)
		}
		if app.Completed != 16 {
			b.Fatalf("completed %d, want 16", app.Completed)
		}
		e.Close()
	}
}

// BenchmarkSpanTracingDisabled / BenchmarkSpanTracingEnabled measure the span
// tracer's overhead on a full 16-request workflow run; the pair backs the
// tracing-overhead table in EXPERIMENTS.md.
func BenchmarkSpanTracingDisabled(b *testing.B) { benchSpanTracing(b, false) }
func BenchmarkSpanTracingEnabled(b *testing.B)  { benchSpanTracing(b, true) }
