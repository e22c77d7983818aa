package router_test

import (
	"reflect"
	"testing"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/faults"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// chaosReplay replays a bursty QoS-mixed trace while a seeded fault schedule
// crashes GPUs and flaps links, with the router failing over on the
// injector's crash signals. Everything — the schedule, the crashes, the
// weighted-random picks — is derived from fixed seeds in virtual time.
func chaosReplay(t *testing.T, mutate func(*router.Config)) replayResult {
	t.Helper()
	arrivals := trace.Generate(trace.Spec{
		Pattern: trace.Bursty, Duration: 2 * time.Second, MeanRPS: 500, Seed: 42,
	})
	e := sim.NewEngine()
	defer e.Close()
	c := cluster.New(e, topology.DGXV100(), 2, grouterPlane)
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(scaleOutOnly())
	cfg := router.DefaultConfig()
	cfg.RecoverAfter = 200 * time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	rt := router.New(app, cfg)

	in := faults.NewInjector(e, c.Fabric.Net)
	rt.WatchFaults(in)
	crasher, ok := c.Plane.(faults.Crasher)
	if !ok {
		t.Fatal("core plane does not implement faults.Crasher")
	}
	// Seeded schedule: two GPU crashes plus random NVLink outages.
	in.CrashGPUAt(300*time.Millisecond, crasher, 0, 0)
	in.CrashGPUAt(900*time.Millisecond, crasher, 1, 1)
	topo := c.Fabric.Topo(0)
	var links []topology.LinkID
	for i := 0; i < topo.Spec.NumGPUs; i++ {
		for j := 0; j < topo.Spec.NumGPUs; j++ {
			if topo.Spec.NVLinkBps(i, j) > 0 {
				links = append(links, topo.NVLinkTo(i, j))
			}
		}
	}
	in.RandomLinkFaults(42, links, 2*time.Second, 400*time.Millisecond, 20*time.Millisecond)

	// Sessioned QoS mix: inert under the default config (affinity weight 0)
	// but lets SLO variants pin sessions and lose pins to the crashes.
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
	if fs := c.Fabric.Net.Faults(); fs.Crashes != 2 || fs.LinksFailed == 0 {
		t.Errorf("fault schedule did not fire: %+v", *fs)
	}
	return replayResult{st: st, samples: app.E2E.Samples(), rs: rt.Stats}
}

// TestChaosRoutingDeterministic: the full chaos stack — seeded fault
// schedule, crash-driven failover, QoS priorities, scored weighted-random
// routing — must replay byte-identically across two independent runs, and
// the faults must actually have fired.
func TestChaosRoutingDeterministic(t *testing.T) {
	a := chaosReplay(t, nil)
	b := chaosReplay(t, nil)
	if !reflect.DeepEqual(a.st, b.st) {
		t.Errorf("chaos replay stats diverged:\n%+v\n%+v", a.st, b.st)
	}
	if !reflect.DeepEqual(a.samples, b.samples) {
		t.Error("chaos latency samples diverged across identical runs")
	}
	if !reflect.DeepEqual(a.rs, b.rs) {
		t.Errorf("chaos router stats diverged:\n%+v\n%+v", a.rs, b.rs)
	}
	if a.rs.Crashes != 2 {
		t.Errorf("router saw %d crash signals, want 2", a.rs.Crashes)
	}
	if a.rs.Failovers == 0 {
		t.Error("no failovers despite crashed workers")
	}
	if a.st.Completed != a.st.Requests {
		t.Errorf("chaos run completed %d of %d requests", a.st.Completed, a.st.Requests)
	}
}

// TestChaosSheddingDeterministic layers SLO admission and session affinity on
// top of the full chaos stack: crashes invalidate affinity pins and shrink
// the capacity the predictor sees, so the shed/defer decisions themselves
// depend on the fault schedule — and must still replay byte-identically.
func TestChaosSheddingDeterministic(t *testing.T) {
	slo := func(cfg *router.Config) {
		cfg.SLO = router.SLOConfig{
			High: router.SLOClass{Budget: 25 * time.Millisecond, MaxDelay: 4 * time.Millisecond},
			Low:  router.SLOClass{Budget: 150 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		}
		cfg.Weights.Session = 2
	}
	a := chaosReplay(t, slo)
	b := chaosReplay(t, slo)
	if !reflect.DeepEqual(a.st, b.st) {
		t.Errorf("chaos+SLO replay stats diverged:\n%+v\n%+v", a.st, b.st)
	}
	if !reflect.DeepEqual(a.samples, b.samples) {
		t.Error("chaos+SLO latency samples diverged across identical runs")
	}
	if !reflect.DeepEqual(a.rs, b.rs) {
		t.Errorf("chaos+SLO router stats diverged:\n%+v\n%+v", a.rs, b.rs)
	}
	if a.rs.Crashes != 2 {
		t.Errorf("router saw %d crash signals, want 2", a.rs.Crashes)
	}
	if a.st.Shed == 0 {
		t.Error("no sheds under chaos burst despite SLO admission")
	}
	if a.st.Completed+a.st.Shed != a.st.Requests {
		t.Errorf("accounting gap: %d completed + %d shed != %d requests",
			a.st.Completed, a.st.Shed, a.st.Requests)
	}
	if a.rs.ShedLow+a.rs.ShedHigh != int64(a.st.Shed) {
		t.Errorf("per-class shed counters %d+%d don't cover %d total sheds",
			a.rs.ShedLow, a.rs.ShedHigh, a.st.Shed)
	}
	if a.rs.AffinityHits == 0 {
		t.Error("no affinity hits despite sessioned traffic and Session weight")
	}
	if a.rs.AffinityInvalidations == 0 {
		t.Error("crashes and decay never invalidated a session pin")
	}
}
