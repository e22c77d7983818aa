package cluster

import (
	"fmt"
	"reflect"
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
// metrics.DistCap completions only the exact recorders (E2EClass: 4 B per
// sample below 2^32 ns, in chunks) may grow with the request count.
// It replays the split driving workflow with the default elastic pools.
func TestReplayRetainedHeapPerRequest(t *testing.T) {
	if slope := retainedPerRequest(t, workflow.Driving, true, 2_000, 12_000); slope > 48 {
		t.Errorf("replay retains %.1f B per request, want at most 48", slope)
	}
}

// TestReplayPastCapRetainsNoPerRequestState pins the bounded recorders: past
// metrics.DistCap completions E2EClass has folded into fixed-size
// histograms, so a drained replay leaves at most 2 B per request reachable.
// The one-stage workflow keeps the 34k and 68k request replays cheap.
func TestReplayPastCapRetainsNoPerRequestState(t *testing.T) {
	if slope := retainedPerRequest(t, oneStage, false, 34_000, 68_000); slope > 2 {
		t.Errorf("replay past the cap retains %.2f B per request, want at most 2", slope)
	}
}

// TestElasticReplayAllocFlatInRunLength replays a churning elastic app at
// two lengths on fresh apps, both past metrics.DistCap so no recorder keeps
// a sample per request, and requires the extra requests of the longer
// replay to allocate under 1.5 B each, fewer than one object per hundred.
// The longer replay scales out and in about twice as often, so a scale
// event that allocated (a member, a routable view) would show: those cost
// 2.3 B and 0.05 objects per extra request. The 0.7 B left is the folded
// histogram reaching new buckets (one 24 KB regrowth) and request states
// tracking peak concurrency.
func TestElasticReplayAllocFlatInRunLength(t *testing.T) {
	wf := &workflow.Workflow{Name: "one-stage", Batch: 8, SLOScale: 1.5,
		Stages: []*workflow.Stage{{Name: "segmentation", Model: models.MustLookup("segmentation")}}}
	replay := func(requests int) (bytes, objects uint64, n int, cycles int64) {
		arrivals := trace.Generate(trace.Spec{
			Pattern:  trace.Sporadic,
			Duration: time.Duration(requests) * time.Second / 60,
			MeanRPS:  60,
			Seed:     5,
		})
		e := sim.NewEngine()
		defer e.Close()
		app := New(e, topology.DGXV100(), 1, grouterPlane).Deploy(wf, 0, scheduler.Options{Node: 0})
		ep := app.EnableElastic(DefaultElastic())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := app.Replay(arrivals, ReplaySpec{Quantum: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if app.Completed != len(arrivals) {
			t.Fatalf("completed %d of %d", app.Completed, len(arrivals))
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, len(arrivals), ep.Stats.ScaleIns
	}
	bs, os, ns, cs := replay(34_000)
	bl, ol, nl, cl := replay(68_000)
	extra := float64(nl - ns)
	perReq := (float64(bl) - float64(bs)) / extra
	objPerReq := (float64(ol) - float64(os)) / extra
	t.Logf("%d B, %d objects, %d scale-ins at %d requests; %d B, %d objects, %d scale-ins at %d: %.2f B and %.4f objects per extra request",
		bs, os, cs, ns, bl, ol, cl, nl, perReq, objPerReq)
	if cs < 300 || cl < 2*cs*9/10 {
		t.Fatalf("%d and %d scale-ins: the replays do not churn the pool in proportion to their length", cs, cl)
	}
	if perReq >= 1.5 || objPerReq >= 0.01 {
		t.Errorf("each extra request allocates %.2f B and %.4f objects, want under 1.5 B and 0.01", perReq, objPerReq)
	}
}

// TestTrafficReplayAllocPerRequest pins the random source of a workflow
// with probabilistic stages: each pooled request state reseeds its own
// source at launch instead of building one (5,376 B per request), so a
// warmed replay of Traffic allocates under 200 B per request.
func TestTrafficReplayAllocPerRequest(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	app := New(e, topology.DGXV100(), 2, grouterPlane).
		Deploy(workflow.Traffic(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	arrivals := trace.Generate(trace.Spec{Pattern: trace.Sporadic, Duration: 20 * time.Second, MeanRPS: 100, Seed: 42})
	replay := func() {
		t.Helper()
		before := app.Completed
		if _, err := app.Replay(arrivals, ReplaySpec{Quantum: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if got := app.Completed - before; got != len(arrivals) {
			t.Fatalf("completed %d of %d", got, len(arrivals))
		}
	}
	replay() // warm the request states, process shells and routes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	n := float64(len(arrivals))
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	objPerReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("warmed replay of %d Traffic requests: %.0f B and %.2f objects per request", len(arrivals), perReq, objPerReq)
	if perReq >= 200 {
		t.Errorf("a Traffic request allocates %.0f B, want under 200", perReq)
	}
}

// TestReplayPercentilesCoverOwnCompletions replays two different traces back
// to back on one app and one LLM service, with a counting completion hook of
// the caller's installed before each: each replay's P50/P99 must be the
// nearest-rank percentiles of its own completions, not of everything the
// app has completed, and after each replay the caller's hook must still be
// the one installed and have seen exactly that replay's completions.
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
		for i, arrivals := range [][]time.Duration{r.first, r.second} {
			var own metrics.Latency
			hook := func(_ int64, _, e2e time.Duration) { own.Add(e2e) }
			*r.hook = hook
			st, err := r.replay(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			// Func values compare only with nil; every hook from the literal
			// above shares its code pointer, and no hook of Replay's does.
			if *r.hook == nil {
				t.Fatalf("%s: replay %d dropped the caller's completion hook", r.name, i+1)
			}
			if reflect.ValueOf(*r.hook).Pointer() != reflect.ValueOf(hook).Pointer() {
				t.Fatalf("%s: replay %d left its completion hook installed", r.name, i+1)
			}
			if own.Count() != len(arrivals) || st.Completed != own.Count() {
				t.Fatalf("%s: replay %d completed %d, hook saw %d of %d", r.name, i+1, st.Completed, own.Count(), len(arrivals))
			}
			if st.P50 != own.P(0.5) || st.P99 != own.P(0.99) {
				t.Errorf("%s: replay %d P50/P99 = %v/%v, its own completions read %v/%v",
					r.name, i+1, st.P50, st.P99, own.P(0.5), own.P(0.99))
			}
		}
	}
}

// TestAppE2EMatchesEveryCompletion replays traces back to back on one app,
// with every request in the low QoS class, every one in the high class, or
// every third one high, and requires App.E2E to answer Count, Mean, Max, P
// and FractionUnder as a distribution fed every completion the app has
// had, and each replay's P50/P99 as one fed that replay's own. The sizes
// put each class, their merge and the merge of a replay's samples with the
// earlier ones on both sides of metrics.DistCap.
func TestAppE2EMatchesEveryCompletion(t *testing.T) {
	for _, c := range []struct {
		name  string
		high  func(i int) bool
		sizes []int // requests per replay
	}{
		{"low-only", func(int) bool { return false }, []int{3_000, 40_000}},
		{"high-only", func(int) bool { return true }, []int{3_000, 40_000}},
		{"mixed", func(i int) bool { return i%3 == 0 }, []int{30_000, 30_000}},
	} {
		e := sim.NewEngine()
		app := New(e, topology.DGXV100(), 2, grouterPlane).
			Deploy(oneStage(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		var all, own metrics.Dist
		app.OnComplete = func(_ int64, _, e2e time.Duration) {
			all.Add(e2e)
			own.Add(e2e)
		}
		spec := ReplaySpec{Quantum: 10 * time.Millisecond, RequestAt: func(i int) Request {
			if c.high(i) {
				return Request{QoS: QoSHigh}
			}
			return Request{}
		}}
		for k, n := range c.sizes {
			own = metrics.Dist{}
			arrivals := trace.Generate(trace.Spec{Pattern: trace.Sporadic, Duration: time.Duration(n) * time.Second / 400, MeanRPS: 400, Seed: int64(k + 1)})
			st, err := app.Replay(arrivals, spec)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s replay %d", c.name, k)
			if st.P50 != own.P(0.5) || st.P99 != own.P(0.99) {
				t.Errorf("%s: P50/P99 = %v/%v, its own completions read %v/%v", name, st.P50, st.P99, own.P(0.5), own.P(0.99))
			}
			got := app.E2E()
			if got.Count() != app.Completed || got.Count() != all.Count() || got.Mean() != all.Mean() || got.Max() != all.Max() {
				t.Fatalf("%s: Count, Mean, Max = %d, %v, %v; every completion %d, %v, %v (completed %d)",
					name, got.Count(), got.Mean(), got.Max(), all.Count(), all.Mean(), all.Max(), app.Completed)
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
				if got.P(q) != all.P(q) {
					t.Fatalf("%s: P(%v) = %v, every completion %v", name, q, got.P(q), all.P(q))
				}
				for _, b := range []time.Duration{all.P(q) - 1, all.P(q), all.P(q) + 1, app.SLO} {
					if got.FractionUnder(b) != all.FractionUnder(b) {
						t.Fatalf("%s: FractionUnder(%v) = %v, every completion %v", name, b, got.FractionUnder(b), all.FractionUnder(b))
					}
				}
			}
		}
		e.Close()
	}
}
