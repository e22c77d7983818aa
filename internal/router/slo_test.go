package router_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/fabric"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// testSLO is the admission configuration the SLO replay tests share: budgets
// calibrated to the driving workflow at the replayOnce load (uncongested p50
// ~9ms), tight deferral bounds so bursty congestion actually sheds.
func testSLO() router.SLOConfig {
	return router.SLOConfig{
		High: router.SLOClass{Budget: 25 * time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Low:  router.SLOClass{Budget: 150 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
}

// sloReplayResult extends replayResult with the per-class completion counts
// the fairness assertions need.
type sloReplayResult struct {
	replayResult
	loCompleted, hiCompleted int
	// attain is Router.Attainment per class at drain, and fed what the
	// router's App.SLOAttainment hook hands the autoscaler.
	attain, fed [2]float64
}

// replaySLO is replayOnce with an SLO-enabled scored router and a trace
// carrying both a QoS mix (every 5th request high) and rotating session IDs.
func replaySLO(t *testing.T, pattern trace.Pattern, requests int, cfg router.Config) sloReplayResult {
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
	rt := router.New(app, cfg)
	st, err := app.Replay(arrivals, cluster.ReplaySpec{
		Quantum: 10 * time.Millisecond,
		RequestAt: func(i int) cluster.Request {
			req := cluster.Request{Session: int64(i%32) + 1}
			if (i+1)%5 == 0 {
				req.QoS = cluster.QoSHigh
			}
			return req
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	res := sloReplayResult{
		replayResult: replayResult{st: st, samples: app.E2E().Samples(), rs: rt.Stats},
		loCompleted:  app.E2EClass[cluster.QoSLow].Count(),
		hiCompleted:  app.E2EClass[cluster.QoSHigh].Count(),
		attain:       [2]float64{rt.Attainment(cluster.QoSLow), rt.Attainment(cluster.QoSHigh)},
	}
	res.fed[0], res.fed[1] = app.SLOAttainment()
	return res
}

// TestSLOInertConfigMatchesBaseline is the differential oracle for SLO
// admission and session affinity: a configuration that carries both in their
// disabled form — class delay bounds but no class budget, and zero session
// weight — must replay byte-identically to the plain scored router on every
// trace pattern. No AdmitFn may be installed (no admission counters), and the
// score stream must not shift (identical per-request samples), proving the
// new subsystems are inert until explicitly enabled.
func TestSLOInertConfigMatchesBaseline(t *testing.T) {
	for _, p := range []trace.Pattern{trace.Sporadic, trace.Periodic, trace.Bursty} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			base := router.DefaultConfig()
			inert := router.DefaultConfig()
			inert.SLO.High.MaxDelay = 4 * time.Millisecond
			inert.SLO.Low.MaxDelay = 20 * time.Millisecond
			inert.Weights.Session = 0
			a := replayOnce(t, p, 1200, &base, 5, nil)
			b := replayOnce(t, p, 1200, &inert, 5, nil)
			if !reflect.DeepEqual(a.st, b.st) {
				t.Errorf("replay stats diverged:\nbaseline: %+v\ninert-slo: %+v", a.st, b.st)
			}
			if !reflect.DeepEqual(a.samples, b.samples) {
				t.Error("latency samples diverged — disabled SLO/affinity changed behavior")
			}
			if b.rs.Admits != 0 || b.rs.Defers != 0 || b.rs.ShedLow != 0 || b.rs.ShedHigh != 0 {
				t.Errorf("inert config recorded admission activity: %+v", b.rs)
			}
			if b.st.Shed != 0 {
				t.Errorf("inert config shed %d requests", b.st.Shed)
			}
		})
	}
}

// TestSLOAdmissionShedsAndAccounts: under the bursty overload pattern the
// admission controller must actually shed, and every drop must be accounted
// for — Requests == Completed + Shed, the per-class shed counters sum to the
// replay's shed count, and the low class keeps completing (shed, never
// silently starved). Router.Attainment, which grouter-sim's admission line
// prints, must read what the autoscaler is fed.
func TestSLOAdmissionShedsAndAccounts(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.SLO = testSLO()
	res := replaySLO(t, trace.Bursty, 5000, cfg)
	if res.st.Shed == 0 {
		t.Fatal("bursty overload shed nothing — admission control is not engaging")
	}
	if res.st.Requests != res.st.Completed+res.st.Shed {
		t.Errorf("drop accounting leak: %d requests != %d completed + %d shed",
			res.st.Requests, res.st.Completed, res.st.Shed)
	}
	if got := res.rs.ShedLow + res.rs.ShedHigh; got != int64(res.st.Shed) {
		t.Errorf("router shed counters (%d low + %d high) != replay shed %d",
			res.rs.ShedLow, res.rs.ShedHigh, res.st.Shed)
	}
	if res.rs.ShedLow == 0 {
		t.Error("no low-class sheds under overload — QoS classes are not differentiated")
	}
	if res.loCompleted == 0 {
		t.Error("low class fully starved: zero completions")
	}
	if res.hiCompleted == 0 {
		t.Error("high class fully starved: zero completions")
	}
	if res.rs.Admits == 0 || res.rs.Defers == 0 {
		t.Errorf("admission pipeline unexercised: admits=%d defers=%d", res.rs.Admits, res.rs.Defers)
	}
	// The last admissions of each class still predict misses, and the
	// attainment the router reports is the one the autoscaler is fed.
	if res.attain != res.fed {
		t.Errorf("Attainment reads low/high %v, the autoscaler is fed %v", res.attain, res.fed)
	}
	for q, a := range res.attain {
		if !(a >= 0 && a < 1) {
			t.Errorf("class %d attainment %v at drain, want a predicted miss rate in [0, 1)", q, a)
		}
	}
}

// TestSLOShedDeterministic pins the double-run invariant with shedding and
// session affinity both active: deferral re-admission rides the engine's
// event queue and affinity the deterministic pin map, so two identical runs
// must agree on every stat, sample, and counter byte for byte.
func TestSLOShedDeterministic(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.SLO = testSLO()
	cfg.Weights.Session = 2
	a := replaySLO(t, trace.Bursty, 5000, cfg)
	b := replaySLO(t, trace.Bursty, 5000, cfg)
	if !reflect.DeepEqual(a.st, b.st) {
		t.Errorf("replay stats diverged:\n%+v\n%+v", a.st, b.st)
	}
	if !reflect.DeepEqual(a.samples, b.samples) {
		t.Error("latency samples diverged across identical shedding runs")
	}
	if !reflect.DeepEqual(a.rs, b.rs) {
		t.Errorf("router stats diverged:\n%+v\n%+v", a.rs, b.rs)
	}
	if a.st.Shed == 0 || a.rs.AffinityHits == 0 {
		t.Errorf("determinism run unexercised: shed=%d affinityHits=%d", a.st.Shed, a.rs.AffinityHits)
	}
}

// randStates builds a reproducible random snapshot for the predictor
// property tests.
func randStates(rng *rand.Rand, n int) []router.WorkerState {
	states := make([]router.WorkerState, n)
	for i := range states {
		states[i] = router.WorkerState{
			Healthy:     rng.Intn(4) != 0,
			QueueDepth:  rng.Intn(50),
			EWMALatency: time.Duration(rng.Intn(40)) * time.Millisecond,
		}
	}
	return states
}

// TestPredictCompletionMonotone: raising any single worker's queue depth or
// EWMA never lowers the predicted completion (the estimate is a min of
// per-worker products, each monotone in both inputs).
func TestPredictCompletionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		states := randStates(rng, 1+rng.Intn(8))
		before := router.PredictCompletion(states)
		i := rng.Intn(len(states))
		if rng.Intn(2) == 0 {
			states[i].QueueDepth += 1 + rng.Intn(10)
		} else {
			states[i].EWMALatency += time.Duration(1+rng.Intn(10)) * time.Millisecond
		}
		if after := router.PredictCompletion(states); after < before {
			t.Fatalf("trial %d: prediction dropped %v -> %v after loading worker %d", trial, before, after, i)
		}
	}
}

// TestPredictPipelineMonotone extends monotonicity to the multi-stage sum:
// loading any worker of any stage never lowers the pipeline estimate, and
// the pipeline estimate is never below any single stage's.
func TestPredictPipelineMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		stages := make([][]router.WorkerState, 1+rng.Intn(4))
		for s := range stages {
			stages[s] = randStates(rng, 1+rng.Intn(5))
		}
		before := router.PredictPipeline(stages)
		for s := range stages {
			if got := router.PredictCompletion(stages[s]); before < got && before != router.PredictCompletion(nil) {
				t.Fatalf("trial %d: pipeline %v below stage %d estimate %v", trial, before, s, got)
			}
		}
		s := rng.Intn(len(stages))
		i := rng.Intn(len(stages[s]))
		stages[s][i].QueueDepth += 1 + rng.Intn(10)
		stages[s][i].EWMALatency += time.Duration(rng.Intn(5)) * time.Millisecond
		if after := router.PredictPipeline(stages); after < before {
			t.Fatalf("trial %d: pipeline prediction dropped %v -> %v", trial, before, after)
		}
	}
}

// TestAdmitNeverShedsWhenIdle: for any configuration and any waited value,
// single-stage admission must run (not defer, not shed) whenever some
// healthy worker is idle — shedding with free capacity can never improve
// attainment.
func TestAdmitNeverShedsWhenIdle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfgs := []router.SLOConfig{
		testSLO(),
		{High: router.SLOClass{Budget: time.Nanosecond}, Low: router.SLOClass{Budget: time.Nanosecond}},
		{High: router.SLOClass{Budget: time.Hour, MaxDelay: time.Hour}},
	}
	for trial := 0; trial < 500; trial++ {
		states := randStates(rng, 1+rng.Intn(8))
		i := rng.Intn(len(states))
		states[i].Healthy = true
		states[i].QueueDepth = 0
		cfg := cfgs[rng.Intn(len(cfgs))]
		q := cluster.QoS(rng.Intn(2))
		waited := time.Duration(rng.Int63n(int64(time.Second)))
		if action, _ := router.AdmitPipeline([][]router.WorkerState{states}, cfg, q, waited); action != cluster.AdmitRun {
			t.Fatalf("trial %d: action %d with an idle healthy worker, want run", trial, action)
		}
	}
}

// TestAdmitDeferThenShed pins the delay-queue state machine on a saturated
// snapshot: predicted misses defer by the 1ms recheck while cumulative wait
// stays inside MaxDelay, then shed; a class without MaxDelay sheds
// immediately; a class without a budget always runs.
func TestAdmitDeferThenShed(t *testing.T) {
	sat := []router.WorkerState{{Healthy: true, QueueDepth: 100, EWMALatency: 10 * time.Millisecond}}
	cfg := router.SLOConfig{
		High: router.SLOClass{Budget: 20 * time.Millisecond, MaxDelay: 3 * time.Millisecond},
	}
	if a, d := router.AdmitPipeline([][]router.WorkerState{sat}, cfg, cluster.QoSHigh, 0); a != cluster.AdmitDefer || d != time.Millisecond {
		t.Errorf("waited 0: got (%d, %v), want defer by 1ms", a, d)
	}
	if a, _ := router.AdmitPipeline([][]router.WorkerState{sat}, cfg, cluster.QoSHigh, 2*time.Millisecond); a != cluster.AdmitDefer {
		t.Errorf("waited 2ms of 3ms: got %d, want defer", a)
	}
	if a, _ := router.AdmitPipeline([][]router.WorkerState{sat}, cfg, cluster.QoSHigh, 3*time.Millisecond); a != cluster.AdmitShed {
		t.Errorf("waited 3ms of 3ms: got %d, want shed (next recheck would overshoot)", a)
	}
	// Zero MaxDelay sheds a predicted miss immediately.
	nodefer := router.SLOConfig{High: router.SLOClass{Budget: 20 * time.Millisecond}}
	if a, _ := router.AdmitPipeline([][]router.WorkerState{sat}, nodefer, cluster.QoSHigh, 0); a != cluster.AdmitShed {
		t.Errorf("zero MaxDelay: got %d, want immediate shed", a)
	}
	// The un-budgeted low class always runs, even saturated.
	if a, _ := router.AdmitPipeline([][]router.WorkerState{sat}, cfg, cluster.QoSLow, time.Hour); a != cluster.AdmitRun {
		t.Errorf("budget-less class: got %d, want run", a)
	}
	// An idle worker overrides the predicted miss.
	idle := append([]router.WorkerState{{Healthy: true}}, sat...)
	if a, _ := router.AdmitPipeline([][]router.WorkerState{idle}, cfg, cluster.QoSHigh, 0); a != cluster.AdmitRun {
		t.Errorf("idle worker present: got %d, want run", a)
	}
}

// TestHostPoolChangeInvalidatesSnapshot is the scale-in drain race
// regression: a pool announcement — including one for a host pool, which the
// old code skipped out of early — must invalidate the cached snapshot so no
// pick inside the refresh window routes on stale EWMA/membership state.
func TestHostPoolChangeInvalidatesSnapshot(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	rt := router.New(app, router.DefaultConfig())
	rt.Snapshot()
	if rt.Stats.Refreshes != 1 {
		t.Fatalf("first snapshot: refreshes = %d, want 1", rt.Stats.Refreshes)
	}
	rt.Snapshot()
	if rt.Stats.Refreshes != 1 {
		t.Fatalf("cached snapshot unexpectedly refreshed (refreshes = %d)", rt.Stats.Refreshes)
	}
	app.OnPoolChange(scheduler.StageInst{Stage: "fusion"}, []fabric.Location{{Node: 0, GPU: fabric.HostGPU}})
	rt.Snapshot()
	if rt.Stats.Refreshes != 2 {
		t.Errorf("host pool change left snapshot fresh (refreshes = %d, want 2) — stale-EWMA race", rt.Stats.Refreshes)
	}
}

// TestAffinityPinInvalidation drives the session pin lifecycle through the
// route hook directly: a pick pins the session, the next pick for the same
// session hits the pin, a pool change cordoning the pinned worker
// invalidates it (no affinity pick can land on a draining worker), and a
// crash or full TTL decay does the same.
func TestAffinityPinInvalidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	cfg := router.Config{Weights: router.Weights{Session: 1}, TopK: 1}
	rt := router.New(app, cfg)
	si := scheduler.StageInst{Stage: "segmentation"}
	pool := []fabric.Location{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 0, GPU: 2}}

	// First pick: no pin yet, all scores equal, seq rotation breaks the tie.
	first, ok := app.Route(si, cluster.RouteInfo{Seq: 0, Session: 9}, pool)
	if !ok {
		t.Fatal("route declined on a healthy pool")
	}
	// Second pick, different seq: without affinity the rotation would move
	// on; the pin must hold it in place.
	second, ok := app.Route(si, cluster.RouteInfo{Seq: 1, Session: 9}, pool)
	if !ok || second != first {
		t.Fatalf("session not pinned: first pick %d, second %d", first, second)
	}
	if rt.Stats.AffinityHits != 1 {
		t.Fatalf("AffinityHits = %d, want 1", rt.Stats.AffinityHits)
	}

	// Cordon the pinned worker out of the stage's pool: the pin must die
	// with it, and the next pick must land elsewhere.
	w := pool[first]
	var drained []fabric.Location
	for _, loc := range pool {
		if loc != w {
			drained = append(drained, loc)
		}
	}
	app.OnPoolChange(si, drained)
	if rt.Stats.AffinityInvalidations != 1 {
		t.Fatalf("cordon did not invalidate the pin (invalidations = %d)", rt.Stats.AffinityInvalidations)
	}
	third, ok := app.Route(si, cluster.RouteInfo{Seq: 2, Session: 9}, drained)
	if !ok {
		t.Fatal("route declined after cordon")
	}
	if drained[third] == w {
		t.Fatalf("affinity steered a pick onto the cordoned worker %v", w)
	}
	if rt.Stats.AffinityHits != 1 {
		t.Fatalf("post-cordon pick counted as an affinity hit (hits = %d)", rt.Stats.AffinityHits)
	}

	// Crash the newly pinned worker: MarkDown must drop the pin too.
	app.Route(si, cluster.RouteInfo{Seq: 3, Session: 9}, drained) // re-pin
	rt.MarkDown(drained[third].Node, drained[third].GPU)
	if rt.Stats.AffinityInvalidations != 2 {
		t.Fatalf("crash did not invalidate the pin (invalidations = %d)", rt.Stats.AffinityInvalidations)
	}

	// A fresh pin fully decays after AffinityTTL of idleness.
	pinIdx, _ := app.Route(si, cluster.RouteInfo{Seq: 4, Session: 11}, pool)
	_ = pinIdx
	e.Schedule(600*time.Millisecond, func() {})
	e.Run(0)
	before := rt.Stats.AffinityInvalidations
	app.Route(si, cluster.RouteInfo{Seq: 5, Session: 11}, pool)
	if rt.Stats.AffinityInvalidations != before+1 {
		t.Errorf("fully decayed pin not dropped (invalidations = %d, want %d)",
			rt.Stats.AffinityInvalidations, before+1)
	}
}

// FuzzAdmission hammers the pure admission decision with adversarial
// configurations and snapshots: zero, negative, and near-overflow budgets,
// saturated and unhealthy pools, absurd waited values. The contract under
// fuzz: never panic, always return a defined action, only defer with a
// positive delay, and never shed while any healthy worker is idle.
func FuzzAdmission(f *testing.F) {
	f.Add(int64(25e6), int64(4e6), int64(150e6), int64(20e6), int64(0), uint8(1), 30, int64(5e6), true)
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), uint8(0), 0, int64(0), false)
	f.Add(int64(-1), int64(-1), int64(-1), int64(-1), int64(-1), uint8(3), -5, int64(-1), true)
	f.Add(int64(1<<62), int64(1<<62), int64(1), int64(1<<62), int64(1<<62), uint8(1), 1000000, int64(1<<62), false)
	f.Add(int64(1), int64(0), int64(1), int64(0), int64(3), uint8(0), 0, int64(1<<62), true)
	f.Fuzz(func(t *testing.T, hiBudget, hiDelay, loBudget, loDelay, waited int64, qos uint8, qdepth int, ewma int64, idle bool) {
		cfg := router.SLOConfig{
			High: router.SLOClass{Budget: time.Duration(hiBudget), MaxDelay: time.Duration(hiDelay)},
			Low:  router.SLOClass{Budget: time.Duration(loBudget), MaxDelay: time.Duration(loDelay)},
		}
		states := []router.WorkerState{
			{Healthy: true, QueueDepth: qdepth, EWMALatency: time.Duration(ewma)},
			{Healthy: false, QueueDepth: -qdepth, EWMALatency: time.Duration(-ewma)},
			{Healthy: idle, QueueDepth: 0},
		}
		q := cluster.QoS(qos % 2)
		action, delay := router.AdmitPipeline([][]router.WorkerState{states}, cfg, q, time.Duration(waited))
		switch action {
		case cluster.AdmitRun, cluster.AdmitShed:
			if delay != 0 {
				t.Fatalf("action %d returned non-zero delay %v", action, delay)
			}
		case cluster.AdmitDefer:
			if delay <= 0 {
				t.Fatalf("defer with non-positive delay %v", delay)
			}
		default:
			t.Fatalf("undefined admission action %d", action)
		}
		if idle && action == cluster.AdmitShed {
			t.Fatal("shed despite an idle healthy worker")
		}
		// A two-stage split of the same workers must satisfy the same
		// contract.
		pa, pd := router.AdmitPipeline([][]router.WorkerState{states[:1], states[1:]}, cfg, q, time.Duration(waited))
		if pa == cluster.AdmitDefer && pd <= 0 {
			t.Fatalf("pipeline defer with non-positive delay %v", pd)
		}
	})
}

// flip scales every pool out from one active replica and back in from two,
// so each controller step changes every GPU pool's membership.
type flip struct{}

func (flip) Name() string { return "flip" }
func (flip) Desired(m autoscale.PoolMetrics) int {
	if m.Active > 1 {
		return 1
	}
	return 2
}

// TestStageGroupsRebuildAllocFree: after an elastic step changes every GPU
// pool's membership, the next admission rebuilds the per-stage worker groups
// it predicts over, and once warmed that rebuild refills the groups in place
// and allocates nothing, nor does the scale event that caused it.
func TestStageGroupsRebuildAllocFree(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	cfg := router.DefaultConfig()
	cfg.SLO = testSLO()
	rt := router.New(app, cfg)
	const interval = 10 * time.Millisecond
	app.EnableElastic(cluster.ElasticConfig{Scaler: flip{}, Min: 1, Max: 2, Interval: interval})
	step := func() {
		e.Run(e.Now() + interval) // one controller step: every pool scales
		if act, _ := app.Admit(cluster.Request{}, 0); act != cluster.AdmitRun {
			t.Fatalf("admission on an idle cluster returned action %d, want run", act)
		}
	}
	step()
	step() // both pool sizes seen
	changes := rt.Stats.PoolChanges
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("%v allocations per scale step and stage-group rebuild, want 0", n)
	}
	if got := rt.Stats.PoolChanges - changes; got != 101*3 {
		t.Errorf("%d pool changes over 101 steps, want one per GPU pool per step (303)", got)
	}
}
