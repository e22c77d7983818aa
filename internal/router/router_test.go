package router_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

func grouterPlane(f *fabric.Fabric) dataplane.Plane { return core.New(f, core.FullConfig()) }

// replayResult captures everything observable about one replayed trace: the
// summary stats, every per-request latency sample, and the router counters.
type replayResult struct {
	st      cluster.ReplayStats
	samples []time.Duration
	rs      router.Stats
}

// scaleOutOnly is the pool configuration of the routed replays: a GPU
// stage's pool grows by one replica whenever its mean per-replica queue
// reaches 2, up to 4 replicas, and never shrinks.
func scaleOutOnly() cluster.ElasticConfig {
	return cluster.ElasticConfig{Scaler: autoscale.Reactive{ScaleOutDepth: 2}, Max: 4}
}

// highMix returns a ReplaySpec.RequestAt admitting every n-th request (in
// trace order) QoSHigh. n <= 0 means no mix (all QoSLow).
func highMix(n int) func(int) cluster.Request {
	if n <= 0 {
		return nil
	}
	return func(i int) cluster.Request {
		if (i+1)%n == 0 {
			return cluster.Request{QoS: cluster.QoSHigh}
		}
		return cluster.Request{}
	}
}

// replayOnce replays a generated trace through the driving workflow on a
// 2-node cluster (autoscaler on, batched admission — the ext-router setup at
// test scale). cfg nil means placement-only; otherwise the router is
// installed with that config. mutate, when non-nil, runs against the router
// before the replay starts.
func replayOnce(t *testing.T, pattern trace.Pattern, requests int, cfg *router.Config,
	highEvery int, mutate func(*router.Router)) replayResult {
	t.Helper()
	arrivals := trace.Generate(trace.Spec{
		Pattern:  pattern,
		Duration: time.Duration(float64(requests) / 500 * float64(time.Second)),
		MeanRPS:  500,
		Seed:     42,
	})
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(scaleOutOnly())
	var rt *router.Router
	if cfg != nil {
		rt = router.New(app, *cfg)
		if mutate != nil {
			mutate(rt)
		}
	}
	st, err := app.Replay(arrivals, cluster.ReplaySpec{Quantum: 10 * time.Millisecond, RequestAt: highMix(highEvery)})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	res := replayResult{st: st, samples: app.E2E.Samples()}
	if rt != nil {
		res.rs = rt.Stats
	}
	return res
}

// TestUniformRoutingMatchesPlacementOnly is the differential oracle: the
// degenerate router configuration (all-zero weights, k=1) must reproduce the
// cluster's placement-only round-robin admission byte for byte — same
// summary stats and the same per-request latency samples — on every trace
// pattern. Uniform weights score all workers equally and the seq-rotation
// tie-break resolves equal scores to seq mod pool, which IS round-robin, so
// any divergence here means the router changed simulation behavior beyond
// pick selection.
func TestUniformRoutingMatchesPlacementOnly(t *testing.T) {
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			base := replayOnce(t, p, 1200, nil, 0, nil)
			uni := router.Uniform()
			routed := replayOnce(t, p, 1200, &uni, 0, nil)
			if !reflect.DeepEqual(base.st, routed.st) {
				t.Errorf("replay stats diverged:\nplacement-only: %+v\nuniform-routed: %+v", base.st, routed.st)
			}
			if !reflect.DeepEqual(base.samples, routed.samples) {
				t.Errorf("latency samples diverged: %d vs %d samples", len(base.samples), len(routed.samples))
				for i := range base.samples {
					if i < len(routed.samples) && base.samples[i] != routed.samples[i] {
						t.Errorf("first divergence at sample %d: %v vs %v", i, base.samples[i], routed.samples[i])
						break
					}
				}
			}
			if routed.rs.Decisions == 0 {
				t.Error("uniform router made no decisions — the hook was not exercised")
			}
			if routed.rs.Fallbacks != 0 || routed.rs.Failovers != 0 {
				t.Errorf("uniform run saw fallbacks=%d failovers=%d, want 0/0 on a healthy cluster",
					routed.rs.Fallbacks, routed.rs.Failovers)
			}
		})
	}
}

// TestScoredRoutingDeterministic pins the double-run invariant for the full
// scored configuration (weighted-random among top-3, QoS mix, adaptive
// refresh): two replays of the same trace must agree on every stat, every
// latency sample, and every router counter.
func TestScoredRoutingDeterministic(t *testing.T) {
	cfg := router.DefaultConfig()
	a := replayOnce(t, trace.Bursty, 1500, &cfg, 7, nil)
	b := replayOnce(t, trace.Bursty, 1500, &cfg, 7, nil)
	if !reflect.DeepEqual(a.st, b.st) {
		t.Errorf("replay stats diverged across identical runs:\n%+v\n%+v", a.st, b.st)
	}
	if !reflect.DeepEqual(a.samples, b.samples) {
		t.Error("latency samples diverged across identical runs")
	}
	if !reflect.DeepEqual(a.rs, b.rs) {
		t.Errorf("router stats diverged across identical runs:\n%+v\n%+v", a.rs, b.rs)
	}
	if a.rs.Decisions == 0 || a.rs.Refreshes == 0 {
		t.Errorf("scored run did not route (decisions=%d refreshes=%d)", a.rs.Decisions, a.rs.Refreshes)
	}
}

// TestFailoverSkipsDownWorker: a blacklisted worker is reported unhealthy in
// the snapshot, routed around (failovers counted), and the replay still
// completes every request.
func TestFailoverSkipsDownWorker(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.RecoverAfter = time.Hour // stays down for the whole replay
	res := replayOnce(t, trace.Sporadic, 800, &cfg, 0, func(rt *router.Router) {
		rt.MarkDown(0, 0)
		for _, ws := range rt.Snapshot() {
			if ws.Node == 0 && ws.GPU == 0 {
				if ws.Healthy {
					t.Fatal("marked-down worker still reported healthy")
				}
			} else if !ws.Healthy {
				t.Fatalf("worker %d/%d unexpectedly unhealthy", ws.Node, ws.GPU)
			}
		}
	})
	if res.st.Completed != res.st.Requests {
		t.Errorf("completed %d of %d requests with one worker down", res.st.Completed, res.st.Requests)
	}
	if res.rs.Failovers == 0 || res.rs.Retries == 0 {
		t.Errorf("no failovers recorded (failovers=%d retries=%d) — down worker never appeared in a pool",
			res.rs.Failovers, res.rs.Retries)
	}
}

// TestAllWorkersDownFallsBack: with every worker blacklisted routing returns
// ErrNoWorker internally and admission falls back to the cluster's
// round-robin — requests must still complete, counted as fallbacks.
func TestAllWorkersDownFallsBack(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.RecoverAfter = time.Hour
	res := replayOnce(t, trace.Sporadic, 300, &cfg, 0, func(rt *router.Router) {
		spec := topology.DGXV100()
		for node := 0; node < 2; node++ {
			for gpu := 0; gpu < spec.NumGPUs; gpu++ {
				rt.MarkDown(node, gpu)
			}
		}
	})
	if res.st.Completed != res.st.Requests {
		t.Errorf("completed %d of %d requests with all workers down", res.st.Completed, res.st.Requests)
	}
	if res.rs.Fallbacks == 0 {
		t.Errorf("no fallbacks recorded (%+v) — ErrNoWorker path never taken", res.rs)
	}
}

// TestPoolChangeSeedsNewWorkerEWMA pins the mid-interval scale-out bugfix: a
// worker entering the pool with no service history must not score as
// infinitely fast. The pool-change hook seeds its EWMA from the mean of the
// pool's seasoned workers and invalidates the snapshot cache.
func TestPoolChangeSeedsNewWorkerEWMA(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	rt := router.New(app, router.DefaultConfig())
	// Season two workers through the service hook the cluster normally fires.
	c.OnGPUService(0, 0, 10*time.Millisecond)
	c.OnGPUService(0, 1, 20*time.Millisecond)
	// Before any pool change, the zero-history worker is the scorer's
	// latency favorite — the bug this test pins.
	snap := rt.Snapshot()
	pre := []router.WorkerState{snap[0], snap[1], snap[2]}
	scores := router.Score(pre, router.Weights{Latency: 1})
	if !(scores[2] > scores[0] && scores[2] > scores[1]) {
		t.Fatalf("precondition: zero-EWMA worker should look fastest, scores %v", scores)
	}
	// The autoscaler announces worker (0,2) joining the pool.
	pool := []fabric.Location{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 0, GPU: 2}}
	app.OnPoolChange(scheduler.StageInst{Stage: "segmentation"}, pool)
	if rt.Stats.PoolChanges != 1 || rt.Stats.Seeded != 1 {
		t.Fatalf("PoolChanges/Seeded = %d/%d, want 1/1", rt.Stats.PoolChanges, rt.Stats.Seeded)
	}
	snap = rt.Snapshot()
	if got, want := snap[2].EWMALatency, 15*time.Millisecond; got != want {
		t.Fatalf("new worker EWMA = %v, want pool mean %v", got, want)
	}
	if snap[0].EWMALatency != 10*time.Millisecond || snap[1].EWMALatency != 20*time.Millisecond {
		t.Fatalf("seasoned workers perturbed: %v, %v", snap[0].EWMALatency, snap[1].EWMALatency)
	}
	// Post-seed, the newcomer no longer dominates on latency.
	post := []router.WorkerState{snap[0], snap[1], snap[2]}
	scores = router.Score(post, router.Weights{Latency: 1})
	if scores[2] > scores[0] {
		t.Fatalf("seeded worker still outranks the fastest seasoned one: %v", scores)
	}
}

// TestPoolChangeAllColdLeavesEWMAUnseeded covers the degenerate pool with no
// seasoned member: there is no mean to seed from, so EWMAs stay zero (all
// workers equally unknown — uniform, not skewed).
func TestPoolChangeAllColdLeavesEWMAUnseeded(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	rt := router.New(app, router.DefaultConfig())
	pool := []fabric.Location{{Node: 0, GPU: 3}, {Node: 0, GPU: 4}}
	app.OnPoolChange(scheduler.StageInst{Stage: "segmentation"}, pool)
	if rt.Stats.Seeded != 0 {
		t.Fatalf("Seeded = %d on an all-cold pool, want 0", rt.Stats.Seeded)
	}
	snap := rt.Snapshot()
	if snap[3].EWMALatency != 0 || snap[4].EWMALatency != 0 {
		t.Fatal("all-cold pool got a fabricated EWMA")
	}
}

// TestUntracedRouteAllocatesOnlyForThePick: with no tracer attached, a
// routed stage activation allocates exactly what its RouteRequest call
// does. The pick's trace event, and its name, are built only for a tracer.
func TestUntracedRouteAllocatesOnlyForThePick(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	cfg := router.DefaultConfig()
	rt := router.New(app, cfg)
	si := scheduler.StageInst{Stage: "segmentation"}
	pool := []fabric.Location{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}, {Node: 1, GPU: 1}}
	snap := rt.Snapshot()
	states := make([]router.WorkerState, 0, len(pool))
	for _, ws := range snap {
		for _, loc := range pool {
			if ws.Node == loc.Node && ws.GPU == loc.GPU {
				states = append(states, ws)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	seq := int64(0)
	route := testing.AllocsPerRun(100, func() {
		seq++
		if _, ok := app.Route(si, cluster.RouteInfo{Seq: seq}, pool); !ok {
			t.Fatal("route declined a healthy GPU pool")
		}
	})
	pick := testing.AllocsPerRun(100, func() {
		seq++
		if _, err := router.RouteRequest(states, cfg, seq, rng); err != nil {
			t.Fatal(err)
		}
	})
	if route != pick {
		t.Errorf("untraced route allocates %v times per pick, RouteRequest %v", route, pick)
	}
}
