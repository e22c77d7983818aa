package cluster

import (
	"testing"
	"time"

	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// TestAllSpecsRunAllWorkflows is the wide integration sweep: every builtin
// topology runs every CNN workflow on GROUTER to completion.
func TestAllSpecsRunAllWorkflows(t *testing.T) {
	for _, spec := range []*topology.Spec{
		topology.DGXV100(), topology.DGXA100(), topology.QuadA10(), topology.H800x8(),
	} {
		for _, wf := range workflow.Suite() {
			e := sim.NewEngine()
			c := New(e, spec, 1, grouterPlane)
			app := c.Deploy(wf, 0, scheduler.Options{Node: 0})
			e.Go("driver", func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					mustSubmit(app, Request{}).Wait(p)
				}
			})
			e.Run(0)
			e.Close()
			if app.Completed != 3 {
				t.Errorf("%s/%s: completed %d of 3", spec.Name, wf.Name, app.Completed)
			}
		}
	}
}

// TestNoStorageLeakAfterTrace checks that after a full trace-driven run the
// GROUTER store holds no live data (everything freed by ref counting).
func TestNoStorageLeakAfterTrace(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	var pl *core.Plane
	c := New(e, topology.DGXV100(), 1, func(f *fabric.Fabric) dataplane.Plane {
		pl = core.New(f, core.FullConfig())
		return pl
	})
	app := c.Deploy(workflow.Traffic(), 0, scheduler.Options{Node: 0})
	if _, err := app.Replay(trace.Generate(trace.Spec{
		Pattern: trace.Bursty, Duration: 8 * time.Second, MeanRPS: 10, Seed: 12,
	}), ReplaySpec{}); err != nil {
		t.Fatal(err)
	}
	if used := pl.Store(0).TotalUsed(); used != 0 {
		t.Errorf("storage holds %d bytes after the trace drained", used)
	}
	// Host memory holds no leaked intermediate data either (ingress objects
	// are freed by their consumers).
	if hostUsed := c.Fabric.NodeF(0).Host.Used(); hostUsed != 0 {
		t.Errorf("host memory holds %d leaked bytes", hostUsed)
	}
}

// TestClusterDeterminism runs the same traced workload twice and demands
// bit-identical latency profiles.
func TestClusterDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		c := New(e, topology.DGXV100(), 1, grouterPlane)
		app := c.Deploy(workflow.Image(), 0, scheduler.Options{Node: 0, Seed: 4})
		if _, err := app.Replay(trace.Generate(trace.Spec{
			Pattern: trace.Periodic, Duration: 5 * time.Second, MeanRPS: 12, Seed: 4,
		}), ReplaySpec{}); err != nil {
			t.Fatal(err)
		}
		return app.E2E().Samples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSpatialSharingIncreasesThroughput checks NewSpatial semantics.
func TestSpatialSharingIncreasesThroughput(t *testing.T) {
	tput := func(slots int) float64 {
		e := sim.NewEngine()
		defer e.Close()
		c := NewSpatial(e, topology.DGXV100(), 1, slots, grouterPlane)
		app := c.Deploy(workflow.Image(), 0, scheduler.Options{Node: 0})
		return app.MeasureThroughput(16, 4*time.Second)
	}
	if t1, t2 := tput(1), tput(2); !(t2 > t1) {
		t.Errorf("spatial sharing did not increase throughput: %v vs %v", t1, t2)
	}
}

// TestConcurrentAppsShareCluster deploys all four workflows on one cluster
// and drives them simultaneously.
func TestConcurrentAppsShareCluster(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	var apps []*App
	for _, wf := range workflow.Suite() {
		apps = append(apps, c.Deploy(wf, 0, scheduler.Options{Node: 0}))
	}
	for i, app := range apps {
		app := app
		for _, at := range trace.Generate(trace.Spec{
			Pattern: trace.Sporadic, Duration: 5 * time.Second, MeanRPS: 3, Seed: int64(i),
		}) {
			at := at
			e.Schedule(at, func() { mustSubmit(app, Request{}) })
		}
	}
	e.Run(0)
	for i, app := range apps {
		if app.Completed == 0 {
			t.Errorf("app %d (%s) completed nothing", i, app.WF.Name)
		}
	}
}

// TestBatchOverride checks per-deployment batch sizing.
func TestBatchOverride(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	small := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0})
	big := c.Deploy(workflow.Driving(), 32, scheduler.Options{Node: 0})
	e.Go("driver", func(p *sim.Proc) {
		mustSubmit(small, Request{}).Wait(p)
		mustSubmit(big, Request{}).Wait(p)
	})
	e.Run(0)
	if !(big.E2E().Mean() > small.E2E().Mean()) {
		t.Errorf("batch 32 (%v) should be slower than batch 1 (%v)", big.E2E().Mean(), small.E2E().Mean())
	}
}
