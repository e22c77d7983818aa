package cluster

import (
	"fmt"
	"runtime"
	"runtime/metrics"
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

// peakPeriod is how often, in virtual time, a peakSampler samples. It
// equals the sharded fleet's lookahead, so the sampling events do not
// shorten a shard window.
const peakPeriod = 10 * time.Millisecond

// peakSampler records the process's highest goroutine count and goroutine
// stack memory, sampled from a daemon event every peakPeriod of virtual
// time. Stack memory is runtime/metrics' /memory/classes/heap/stacks:bytes:
// MemStats.StackInuse plus the OS threads' stacks, read in about a
// microsecond without stopping the world (ReadMemStats took about 26 µs on
// a 2-vCPU VM).
type peakSampler struct {
	goroutines int
	stack      uint64
	s          [1]metrics.Sample
}

// attach starts sampling on e; one sampler serves one engine.
func (ps *peakSampler) attach(e *sim.Engine) {
	ps.s[0].Name = "/memory/classes/heap/stacks:bytes"
	var tick func()
	tick = func() {
		ps.goroutines = max(ps.goroutines, runtime.NumGoroutine())
		metrics.Read(ps.s[:])
		ps.stack = max(ps.stack, ps.s[0].Value.Uint64())
		e.ScheduleDaemon(peakPeriod, tick)
	}
	e.ScheduleDaemon(0, tick)
}

// reportPeaks publishes the highest peaks of samplers as benchmark metrics.
func reportPeaks(b *testing.B, samplers ...*peakSampler) {
	var g int
	var stack uint64
	for _, ps := range samplers {
		g, stack = max(g, ps.goroutines), max(stack, ps.stack)
	}
	b.ReportMetric(float64(g), "peak-goroutines")
	b.ReportMetric(float64(stack)/(1<<20), "peak-stack-MiB")
}

// BenchmarkScaleReplay replays a ~100k-request bursty trace (5k under
// -short) through the driving workflow split across a 2-node DGX-V100
// cluster. It is the acceptance benchmark for the engine/cluster/netsim
// fast path, and reports the process's peak goroutines and goroutine stack
// memory over its iterations; before/after numbers live in EXPERIMENTS.md.
func BenchmarkScaleReplay(b *testing.B) {
	requests := 100_000
	if testing.Short() {
		requests = 5_000
	}
	arrivals := scaleArrivals(requests)
	var peaks peakSampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		c := New(e, topology.DGXV100(), 2, grouterPlane)
		app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		app.EnableElastic(scaleOutOnly(4, 0))
		peaks.attach(e)
		if _, err := app.Replay(arrivals, ReplaySpec{}); err != nil {
			b.Fatal(err)
		}
		if app.Completed != len(arrivals) {
			b.Fatalf("completed %d of %d", app.Completed, len(arrivals))
		}
		e.Close()
	}
	reportPeaks(b, &peaks)
}

// BenchmarkScaleReplaySharded replays the same canonical bursty trace over
// the 8-pod scale-out fleet at varying shard counts. Deterministic output is
// identical across sub-benchmarks (ShardedReplay's differential tests assert
// it); only wall-clock changes, so the shards=1 / shards=N ns/op ratio is
// the parallel speedup on the host. On a single-core host expect ~1× plus
// barrier overhead; see EXPERIMENTS.md for multi-core numbers. Each shard
// engine samples the process's peak goroutines and stack memory.
func BenchmarkScaleReplaySharded(b *testing.B) {
	requests := 100_000
	if testing.Short() {
		requests = 5_000
	}
	arrivals := scaleArrivals(requests)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var peaks []*peakSampler
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				onEngine := make(map[*sim.Engine]bool, shards)
				st := ShardedReplay(arrivals, ShardedOptions{Shards: shards}, func(pod int, e *sim.Engine) *App {
					if !onEngine[e] {
						onEngine[e] = true
						peaks = append(peaks, new(peakSampler))
						peaks[len(peaks)-1].attach(e)
					}
					return buildScalePod(pod, e)
				})
				if st.Completed != len(arrivals) {
					b.Fatalf("completed %d of %d", st.Completed, len(arrivals))
				}
			}
			reportPeaks(b, peaks...)
		})
	}
}
