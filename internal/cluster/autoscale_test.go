package cluster

import (
	"testing"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// scaleOutOnly is the reactive scale-out-only pool configuration: a GPU
// stage's pool grows by one replica whenever its mean per-replica queue
// reaches 2, up to max replicas, and never shrinks. A zero interval keeps
// the controller's default.
func scaleOutOnly(max int, interval time.Duration) ElasticConfig {
	return ElasticConfig{Scaler: autoscale.Reactive{ScaleOutDepth: 2}, Max: max, Interval: interval}
}

func TestAutoscaleScalesOutUnderOverload(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(scaleOutOnly(4, 100*time.Millisecond))
	// Overload: far more than one segmentation instance can sustain.
	for _, at := range trace.Generate(trace.Spec{
		Pattern: trace.Sporadic, Duration: 5 * time.Second, MeanRPS: 80, Seed: 3,
	}) {
		at := at
		e.Schedule(at, func() { mustSubmit(app, Request{}) })
	}
	e.Run(0)
	if ep.Stats.ScaleOuts == 0 {
		t.Fatal("controller never scaled out under overload")
	}
	// The bottleneck stage (segmentation) should have grown its pool.
	active, _, _ := ep.Replicas("segmentation", 0)
	if active < 2 {
		t.Errorf("segmentation replicas = %d, want >= 2", active)
	}
	if active > 4 {
		t.Error("pool exceeded Max")
	}
}

func TestAutoscaleIdleAppStaysAtOne(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	ep := app.EnableElastic(scaleOutOnly(4, 0))
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			mustSubmit(app, Request{}).Wait(p)
			p.Sleep(200 * time.Millisecond)
		}
	})
	e.Run(0)
	if ep.Stats.ScaleOuts != 0 {
		t.Errorf("idle app scaled out %d times", ep.Stats.ScaleOuts)
	}
	if active, _, _ := ep.Replicas("denoise", 0); active != 1 {
		t.Errorf("replicas = %d, want 1", active)
	}
}

func TestAutoscaleImprovesThroughput(t *testing.T) {
	measure := func(auto bool) int {
		e := sim.NewEngine()
		defer e.Close()
		c := New(e, topology.DGXV100(), 1, grouterPlane)
		app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
		if auto {
			app.EnableElastic(scaleOutOnly(4, 100*time.Millisecond))
		}
		for _, at := range trace.Generate(trace.Spec{
			Pattern: trace.Sporadic, Duration: 8 * time.Second, MeanRPS: 80, Seed: 3,
		}) {
			at := at
			e.Schedule(at, func() { mustSubmit(app, Request{}) })
		}
		e.Run(8 * time.Second) // fixed horizon: count completions inside it
		return app.Completed
	}
	fixed := measure(false)
	scaled := measure(true)
	if !(scaled > fixed) {
		t.Errorf("autoscaling completed %d, fixed %d — expected improvement", scaled, fixed)
	}
}

func TestAutoscaledColdInstances(t *testing.T) {
	// With cold starts enabled, instances the autoscaler provisions pay the
	// container launch in the background before they take requests, so a
	// replay that scales out charges no request a cold start.
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: 0})
	app.SetColdStart(ColdStartPolicy{Enabled: true, ContainerLatency: 200 * time.Millisecond,
		KeepAlive: time.Minute, Prewarm: true})
	ep := app.EnableElastic(scaleOutOnly(3, 100*time.Millisecond))
	for _, at := range trace.Generate(trace.Spec{
		Pattern: trace.Sporadic, Duration: 5 * time.Second, MeanRPS: 80, Seed: 9,
	}) {
		at := at
		e.Schedule(at, func() { mustSubmit(app, Request{}) })
	}
	e.Run(0)
	if ep.Stats.ScaleOuts == 0 {
		t.Skip("no scale-out under this seed")
	}
	// Pre-warmed base instances plus provisioned autoscaled ones → no cold
	// start.
	if got := app.ColdStarts(); got != 0 {
		t.Errorf("cold starts = %d after %d scale-outs, want 0", got, ep.Stats.ScaleOuts)
	}
}
