package cluster

import (
	"errors"
	"testing"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
	"grouter/internal/xfer"
)

func TestColdStartPenaltyAndWarmReuse(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{
		Enabled:          true,
		ContainerLatency: 500 * time.Millisecond,
		KeepAlive:        10 * time.Second,
	})
	e.Go("driver", func(p *sim.Proc) {
		mustSubmit(app, Request{}).Wait(p) // cold
		mustSubmit(app, Request{}).Wait(p) // warm
	})
	e.Run(0)
	if app.Completed != 2 {
		t.Fatalf("completed %d", app.Completed)
	}
	// Driving has 3 GPU stages: exactly 3 cold starts, paid once.
	if got := app.ColdStarts(); got != 3 {
		t.Errorf("cold starts = %d, want 3", got)
	}
	samples := app.E2E().Samples()
	cold, warm := samples[len(samples)-1], samples[0]
	if !(cold > warm+time.Second) {
		t.Errorf("cold request %v should exceed warm %v by container+load time", cold, warm)
	}
}

// TestFailedModelLoadNeverWarms downs the host→GPU links a cold start loads
// its weights over: the load must panic, as a failed input Get does, and
// leave the instance cold.
func TestFailedModelLoadNeverWarms(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: 800 * time.Millisecond, KeepAlive: 30 * time.Second})
	var ps *poolState
	for _, cand := range app.pools {
		if cand.stage.IsGPU() {
			ps = cand
			break
		}
	}
	m := ps.members[0]
	for _, l := range c.Fabric.Topo(m.loc.Node).AppendHostToGPULinks(nil, m.loc.GPU) {
		c.Fabric.Net.FailLink(l)
	}
	var recovered any
	e.Go("load", func(p *sim.Proc) {
		defer func() { recovered = recover() }()
		app.ensureWarm(p, ps.si, m, ps.stage.Model.WeightsBytes)
	})
	e.Run(0)
	if err, _ := recovered.(error); !errors.Is(err, xfer.ErrPathsDown) {
		t.Fatalf("failed model load recovered %v, want a panic wrapping ErrPathsDown", recovered)
	}
	if m.warm || app.ColdStarts() != 0 {
		t.Errorf("a failed model load warmed the instance (cold starts %d)", app.ColdStarts())
	}
}

func TestKeepAliveExpiryRecolds(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{
		Enabled:          true,
		ContainerLatency: 100 * time.Millisecond,
		KeepAlive:        time.Second,
	})
	e.Go("driver", func(p *sim.Proc) {
		mustSubmit(app, Request{}).Wait(p)
		p.Sleep(5 * time.Second) // idle beyond keep-alive
		mustSubmit(app, Request{}).Wait(p)
	})
	e.Run(0)
	if got := app.ColdStarts(); got != 6 {
		t.Errorf("cold starts = %d, want 6 (3 stages × 2 cold rounds)", got)
	}
}

func TestPrewarmAvoidsColdStarts(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{
		Enabled:          true,
		ContainerLatency: 500 * time.Millisecond,
		KeepAlive:        time.Minute,
		Prewarm:          true,
	})
	e.Go("driver", func(p *sim.Proc) { mustSubmit(app, Request{}).Wait(p) })
	e.Run(0)
	if got := app.ColdStarts(); got != 0 {
		t.Errorf("cold starts with pre-warming = %d, want 0", got)
	}
}

func TestDefaultIsAlwaysWarm(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	e.Go("driver", func(p *sim.Proc) { mustSubmit(app, Request{}).Wait(p) })
	e.Run(0)
	if got := app.ColdStarts(); got != 0 {
		t.Errorf("cold starts without policy = %d, want 0", got)
	}
}

func TestAutoscaledReplicaChargedColdStart(t *testing.T) {
	// A scaled-out replica provisions warm, so its first request pays no
	// cold start, but its warmth then expires like any instance's: once it
	// idles past KeepAlive, the next request routed to it is charged the
	// ColdStartPolicy latency again.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	const lat, keepAlive = 200 * time.Millisecond, time.Second
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: lat,
		KeepAlive: keepAlive, Prewarm: true})
	e2e := map[int64]time.Duration{}
	app.OnComplete = func(seq int64, _, d time.Duration) { e2e[seq] = d }
	app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{Replicas: 2},
		Min:      1,
		Max:      2,
		Interval: 50 * time.Millisecond,
	})
	e.Run(300 * time.Millisecond) // scaled out at 50ms, routable and warm at 250ms
	// Round-robin over a 2-pool: odd seqs go to member id 1 (the autoscaled
	// replica, for all 3 GPU stages), even seqs to member id 0 (the base).
	mustSubmit(app, Request{})
	mustSubmit(app, Request{})
	e.Run(0)
	if got := app.ColdStarts(); got != 0 {
		t.Fatalf("cold starts = %d after provisioning, want 0", got)
	}
	if e2e[1] >= lat {
		t.Errorf("first request on the provisioned replica took %v, want below one container latency %v", e2e[1], lat)
	}
	e.Run(e.Now() + 2*keepAlive) // every replica idles past its keep-alive
	mustSubmit(app, Request{})
	mustSubmit(app, Request{})
	e.Run(0)
	if got := app.ColdStarts(); got != 6 {
		t.Fatalf("cold starts = %d, want 6 (3 stages × 2 expired replicas)", got)
	}
	if e2e[3] < 3*lat {
		t.Errorf("expired autoscaled replica's request e2e %v should pay 3 serial container latencies (>= %v)", e2e[3], 3*lat)
	}
}

func TestElasticPrewarmProvisioning(t *testing.T) {
	// Autoscaler with cold starts on: a scaled replica provisions in the
	// background — not routable until the cold-start policy's container
	// launch latency has elapsed since its scale-out, and then already warm,
	// so no request is ever charged its cold start.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	const lat, interval = 300 * time.Millisecond, 50 * time.Millisecond
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: lat,
		KeepAlive: time.Minute, Prewarm: true})
	ep := app.EnableElastic(ElasticConfig{
		Scaler:   autoscale.Fixed{Replicas: 2},
		Min:      1,
		Max:      2,
		Interval: interval,
	})
	e.Run(60 * time.Millisecond) // scale-out ordered at the first step, still provisioning
	si := scheduler.StageInst{Stage: "segmentation", Replica: 0}
	if ep.Stats.ScaleOuts != 3 {
		t.Fatalf("%d scale-outs by 60ms, want one per GPU stage at %v", ep.Stats.ScaleOuts, interval)
	}
	if active, prov, _ := ep.Replicas("segmentation", 0); active != 1 || prov != 1 {
		t.Fatalf("active/prov = %d/%d during provisioning, want 1/1", active, prov)
	}
	if got := len(app.pool(si).locs); got != 1 {
		t.Fatalf("provisioning member already routable: pool size %d", got)
	}
	e.Run(interval + lat - time.Nanosecond)
	if got := len(app.pool(si).locs); got != 1 {
		t.Fatalf("member routable one nanosecond before its provisioning ended: pool size %d", got)
	}
	e.Run(interval + lat) // provisioning delay elapsed
	if active, prov, _ := ep.Replicas("segmentation", 0); active != 2 || prov != 0 {
		t.Fatalf("active/prov = %d/%d after provisioning, want 2/0", active, prov)
	}
	if got := len(app.pool(si).locs); got != 2 {
		t.Fatalf("provisioned member not routable: pool size %d", got)
	}
	mustSubmit(app, Request{})
	mustSubmit(app, Request{})
	e.Run(0)
	if app.Completed != 2 {
		t.Fatalf("completed %d", app.Completed)
	}
	if got := app.ColdStarts(); got != 0 {
		t.Errorf("cold starts = %d, want 0 — pre-warmed provisioning must absorb them", got)
	}

	// With cold starts off there is no container to launch, whatever
	// latency the policy names: a new member is routable and warm the
	// instant it scales out.
	e2 := sim.NewEngine()
	defer e2.Close()
	app2 := New(e2, topology.DGXV100(), 1, grouterPlane).Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app2.SetColdStart(ColdStartPolicy{ContainerLatency: lat})
	ep2 := app2.EnableElastic(ElasticConfig{Scaler: autoscale.Fixed{}, Min: 1, Max: 2,
		Interval: time.Hour}) // the test drives the scale-out
	ps := app2.pool(si)
	ep2.scaleOut(ps, e2.Now())
	if m := ps.members[1]; m.phase != memberActive || !m.warm || len(ps.slots) != 2 {
		t.Errorf("cold starts off: new member phase %d, warm %v, %d routable; want active, warm, 2",
			m.phase, m.warm, len(ps.slots))
	}
}
