package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// buildScalePod is the canonical scale-out pod: the 2-node DGX-V100
// grouter-plane driving-workflow deployment the single-cluster scale
// benchmarks use, one instance per pod.
func buildScalePod(pod int, e *sim.Engine) *App {
	c := New(e, topology.DGXV100(), 2, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(scaleOutOnly(4, 0))
	return app
}

func shardArrivals(pattern trace.Pattern, requests int) []time.Duration {
	return trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
}

// statsKey renders everything deterministic about a sharded replay —
// fleet-level stats and the full per-pod breakdown — as one comparable
// string. Wall-clock fields (Util, Wall) are deliberately excluded.
func statsKey(st ShardedStats) string {
	s := fmt.Sprintf("req=%d done=%d dur=%v tput=%.6f p50=%v p99=%v pods=%d\n",
		st.Requests, st.Completed, st.Duration, st.Throughput, st.P50, st.P99, st.Pods)
	for _, p := range st.PerPod {
		s += fmt.Sprintf("pod %d: req=%d done=%d p50=%v p99=%v\n",
			p.Pod, p.Requests, p.Completed, p.P50, p.P99)
	}
	return s
}

// TestShardedReplayDifferential is the determinism acceptance test: for each
// trace pattern, replays at 1, 2, 4, and 8 shards — parallel and, for 4
// shards, also under the sequential oracle — must produce byte-identical
// deterministic stats.
func TestShardedReplayDifferential(t *testing.T) {
	requests := 2_000
	if testing.Short() {
		requests = 500
	}
	for _, pattern := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			arrivals := shardArrivals(pattern, requests)
			oracle := ShardedReplay(arrivals, ShardedOptions{Shards: 1}, buildScalePod)
			if oracle.Completed != len(arrivals) {
				t.Fatalf("oracle completed %d of %d", oracle.Completed, len(arrivals))
			}
			want := statsKey(oracle)
			for _, shards := range []int{2, 4, 8} {
				got := statsKey(ShardedReplay(arrivals, ShardedOptions{Shards: shards}, buildScalePod))
				if got != want {
					t.Errorf("%d-shard parallel replay diverged from single-shard oracle:\n got: %s\nwant: %s", shards, got, want)
				}
			}
			got := statsKey(ShardedReplay(arrivals, ShardedOptions{Shards: 4, Sequential: true}, buildScalePod))
			if got != want {
				t.Errorf("4-shard sequential replay diverged from single-shard oracle:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func TestShardedReplayStats(t *testing.T) {
	arrivals := shardArrivals(trace.Bursty, 500)
	st := ShardedReplay(arrivals, ShardedOptions{Shards: 4}, buildScalePod)
	if st.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", st.Completed, len(arrivals))
	}
	if st.Pods != DefaultPods || st.Shards != 4 {
		t.Fatalf("pods=%d shards=%d, want %d/4", st.Pods, st.Shards, DefaultPods)
	}
	if len(st.PerPod) != DefaultPods {
		t.Fatalf("per-pod rows %d, want %d", len(st.PerPod), DefaultPods)
	}
	sum, reqSum := 0, 0
	for _, p := range st.PerPod {
		if p.Requests != p.Completed {
			t.Fatalf("pod %d completed %d of %d", p.Pod, p.Completed, p.Requests)
		}
		if want := p.Pod % 4; p.Shard != want {
			t.Fatalf("pod %d on shard %d, want %d", p.Pod, p.Shard, want)
		}
		sum += p.Completed
		reqSum += p.Requests
	}
	if sum != st.Completed || reqSum != st.Requests {
		t.Fatalf("per-pod totals %d/%d, fleet %d/%d", sum, reqSum, st.Completed, st.Requests)
	}
	if len(st.Util) != 4 {
		t.Fatalf("util rows %d, want 4", len(st.Util))
	}
	var events int64
	for _, u := range st.Util {
		events += u.Events
	}
	if events == 0 {
		t.Fatal("no events recorded across shards")
	}
	if st.Wall <= 0 {
		t.Fatal("wall-clock not recorded")
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("implausible percentiles p50=%v p99=%v", st.P50, st.P99)
	}
}

// TestShardedReplayMergesTraces checks that per-shard tracers are returned and
// merge into one deterministic Chrome trace.
func TestShardedReplayMergesTraces(t *testing.T) {
	arrivals := shardArrivals(trace.Bursty, 200)
	export := func() string {
		st := ShardedReplay(arrivals, ShardedOptions{Shards: 2, Trace: true}, buildScalePod)
		if len(st.Tracers) != 2 {
			t.Fatalf("tracers %d, want 2", len(st.Tracers))
		}
		for i, tr := range st.Tracers {
			if tr == nil || tr.Len() == 0 {
				t.Fatalf("shard %d tracer empty", i)
			}
			if tr.Shard() != int32(i) {
				t.Fatalf("tracer %d tagged shard %d", i, tr.Shard())
			}
		}
		var sb strings.Builder
		if err := obs.ExportMerged(&sb, st.Tracers...); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("merged trace export not byte-identical across runs")
	}
	if !strings.Contains(a, "\"pid\":1") {
		t.Fatal("merged trace missing shard 1 process lane")
	}
}

// TestShardedReplayEmptyTrace exercises the zero-arrival path.
func TestShardedReplayEmptyTrace(t *testing.T) {
	st := ShardedReplay(nil, ShardedOptions{Shards: 2}, buildScalePod)
	if st.Completed != 0 || st.Requests != 0 {
		t.Fatalf("empty trace produced %d/%d", st.Completed, st.Requests)
	}
}

// TestShardedReplayKeepsBuildHooks is the regression test for a pod's own
// completion hook: ShardedReplay chains onto the OnComplete that build
// installs instead of replacing it, so the hook sees every completion.
func TestShardedReplayKeepsBuildHooks(t *testing.T) {
	arrivals := shardArrivals(trace.Sporadic, 400)
	counts := make([]int, DefaultPods)
	st := ShardedReplay(arrivals, ShardedOptions{Shards: 2}, func(pod int, e *sim.Engine) *App {
		app := buildScalePod(pod, e)
		app.OnComplete = func(int64, time.Duration, time.Duration) { counts[pod]++ }
		return app
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(arrivals) || st.Completed != len(arrivals) {
		t.Fatalf("build hooks saw %d completions, replay %d, of %d arrivals", total, st.Completed, len(arrivals))
	}
}
