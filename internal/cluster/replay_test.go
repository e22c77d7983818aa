package cluster

import (
	"runtime"
	"testing"
	"time"

	"grouter/internal/metrics"
	"grouter/internal/models"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// oneStage is the cheapest workflow a replay can run: a single GPU stage,
// so a request passes no data between functions.
func oneStage() *workflow.Workflow {
	return &workflow.Workflow{Name: "one-stage", Batch: 1, SLOScale: 1.5,
		Stages: []*workflow.Stage{{Name: "denoise", Model: models.MustLookup("denoise")}}}
}

// retainedPerRequest replays Poisson 400 req/s traces of wf on a 2-node
// DGX-V100 at the two sizes, on fresh apps, and returns the slope of the
// heap a drained replay leaves reachable, so fixed costs cancel. elastic
// turns on the default elastic pools.
func retainedPerRequest(t *testing.T, wf func() *workflow.Workflow, elastic bool, small, large int) float64 {
	t.Helper()
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
		app := c.Deploy(wf(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		if elastic {
			app.EnableElastic(DefaultElastic())
		}
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
	bs, ns := retained(small)
	bl, nl := retained(large)
	slope := float64(bl-bs) / float64(nl-ns)
	t.Logf("retained %d B at %d requests, %d B at %d: %.2f B/request", bs, ns, bl, nl, slope)
	return slope
}

// TestReplayRetainedHeapPerRequest pins flat-memory replay: what a drained
// replay leaves reachable grows by at most 48 B per request. Below
// metrics.DistCap completions only the exact recorders (E2E, E2EClass: 8 B
// per sample each, in buffers that double) may grow with the request count.
// It replays the split driving workflow with the default elastic pools.
func TestReplayRetainedHeapPerRequest(t *testing.T) {
	if slope := retainedPerRequest(t, workflow.Driving, true, 2_000, 12_000); slope > 48 {
		t.Errorf("replay retains %.1f B per request, want at most 48", slope)
	}
}

// TestReplayPastCapRetainsNoPerRequestState pins the bounded recorders: past
// metrics.DistCap completions E2E and E2EClass have folded into fixed-size
// histograms, so a drained replay leaves at most 2 B per request reachable.
// The one-stage workflow keeps the 34k and 68k request replays cheap.
func TestReplayPastCapRetainsNoPerRequestState(t *testing.T) {
	if slope := retainedPerRequest(t, oneStage, false, 34_000, 68_000); slope > 2 {
		t.Errorf("replay past the cap retains %.2f B per request, want at most 2", slope)
	}
}

// TestReplayPercentilesCoverOwnCompletions replays two different traces back
// to back on one app and one LLM service: each replay's P50/P99 must be the
// nearest-rank percentiles of its own completions, not of everything the
// app has completed, and the completion hook must be restored after it.
func TestReplayPercentilesCoverOwnCompletions(t *testing.T) {
	type replayer struct {
		name   string
		replay func(arrivals []time.Duration) (ReplayStats, error)
		hook   *func(seq int64, at, e2e time.Duration)
		first  []time.Duration
		second []time.Duration
	}
	e := sim.NewEngine()
	defer e.Close()
	app := New(e, topology.DGXV100(), 2, grouterPlane).
		Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	_, _, svc := newLLMService(t, PDConfig{PrefillWorkers: 2, DecodeWorkers: 2})
	defer svc.C.Engine.Close()
	gen := func(p trace.Pattern, n int, rps float64) []time.Duration {
		return trace.Generate(trace.Spec{Pattern: p, Duration: time.Duration(float64(n) / rps * float64(time.Second)), MeanRPS: rps, Seed: 7})
	}
	for _, r := range []replayer{
		{"app", func(a []time.Duration) (ReplayStats, error) {
			return app.Replay(a, ReplaySpec{Quantum: 10 * time.Millisecond})
		}, &app.OnComplete, gen(trace.Sporadic, 500, 50), gen(trace.Bursty, 2_000, 800)},
		{"llm", func(a []time.Duration) (ReplayStats, error) {
			return svc.Replay(a, ReplaySpec{})
		}, &svc.OnComplete, pdArrivals(50, 200*time.Millisecond), pdArrivals(300, time.Millisecond)},
	} {
		if _, err := r.replay(r.first); err != nil {
			t.Fatal(err)
		}
		if *r.hook != nil {
			t.Fatalf("%s: Replay left its completion hook installed", r.name)
		}
		var own metrics.Latency
		*r.hook = func(_ int64, _, e2e time.Duration) { own.Add(e2e) }
		st, err := r.replay(r.second)
		if err != nil {
			t.Fatal(err)
		}
		if *r.hook == nil {
			t.Fatalf("%s: Replay dropped the caller's completion hook", r.name)
		}
		if own.Count() != len(r.second) || st.Completed != own.Count() {
			t.Fatalf("%s: second replay completed %d, hook saw %d of %d", r.name, st.Completed, own.Count(), len(r.second))
		}
		if st.P50 != own.P(0.5) || st.P99 != own.P(0.99) {
			t.Errorf("%s: second replay P50/P99 = %v/%v, its own completions read %v/%v",
				r.name, st.P50, st.P99, own.P(0.5), own.P(0.99))
		}
	}
}
