// Package cluster is the serverless runtime: it assembles a simulated GPU
// cluster with a data plane, deploys workflow apps with placed (pre-warmed)
// function instances, and executes requests as DAG instances — waiting on
// dependencies, pulling inputs through the data plane, time-multiplexing GPU
// compute, and publishing outputs.
package cluster

import (
	"fmt"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/models"
	"grouter/internal/obs"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
	"grouter/internal/xfer"
)

// HostSlots is the number of cFns a node's CPUs run concurrently.
const HostSlots = 16

// QoS is a request priority class. High-priority requests skip low-priority
// ones in GPU compute-slot queues (see sim.Resource.AcquirePri); with queue
// aging enabled (Cluster.SetQueueAging) skipped low-priority requests age up
// one class per aging period, bounding starvation.
type QoS int8

const (
	// QoSLow is the default class; it matches the pre-QoS FIFO behavior.
	QoSLow QoS = 0
	// QoSHigh skips QoSLow in worker queues.
	QoSHigh QoS = 1
)

// RouteInfo carries the per-request attributes a Route hook may consult:
// the request sequence number plus the descriptor fields routing policies
// key on (priority class, session identity).
type RouteInfo struct {
	Seq     int64
	QoS     QoS
	Session int64
}

// RouteFn picks the pool member serving one stage activation of one request:
// it returns an index into pool and true, or false to fall back to the
// default round-robin (seq mod pool size). The front-door router installs
// its scored pick here; the hook runs in event context and must be
// deterministic in virtual time. pool is the stage's routable view itself,
// valid only until the next membership change refills it in place: the
// router's route keeps none of it, and a hook that keeps it must copy it.
type RouteFn func(si scheduler.StageInst, req RouteInfo, pool []fabric.Location) (int, bool)

// Cluster couples a fabric, a data plane, compute resources, and a placer.
type Cluster struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric
	Plane  dataplane.Plane
	Placer *scheduler.Placer
	Class  models.Class

	// OnGPUService, when non-nil, observes every GPU compute-slot hold
	// (node, gpu, held duration) at release time. The request router feeds
	// its per-worker EWMA service latency and utilization from it; the hook
	// must not start simulation activity.
	OnGPUService func(node, gpu int, held time.Duration)

	gpus  [][]*sim.Resource
	hosts []*sim.Resource
	xm    *xfer.Manager
	seq   int64
}

// New builds a cluster of n nodes with the data plane returned by mkPlane.
// GPUs are time-multiplexed (one function at a time), the sharing model the
// paper adopts.
func New(e *sim.Engine, spec *topology.Spec, n int, mkPlane func(*fabric.Fabric) dataplane.Plane) *Cluster {
	return NewSpatial(e, spec, n, 1, mkPlane)
}

// NewSpatial builds a cluster whose GPUs each run `slots` functions
// concurrently (MPS-style spatial sharing, §7). Spatial sharing raises
// bandwidth and memory contention, which makes the data plane's partitioning
// and storage management more critical.
func NewSpatial(e *sim.Engine, spec *topology.Spec, n, slots int, mkPlane func(*fabric.Fabric) dataplane.Plane) *Cluster {
	return NewOnFabric(fabric.New(e, spec, n), slots, mkPlane)
}

// NewOnFabric builds the runtime over an existing fabric instead of creating
// its own, so a cluster can share the fabric with an already-attached tracer,
// fault injector, or externally-constructed data plane (the grouter façade's
// Sim.NewCluster uses this).
func NewOnFabric(f *fabric.Fabric, slots int, mkPlane func(*fabric.Fabric) dataplane.Plane) *Cluster {
	if slots < 1 {
		panic("cluster: GPU slots must be >= 1")
	}
	e := f.Engine
	c := &Cluster{
		Engine: e,
		Fabric: f,
		Plane:  mkPlane(f),
		Placer: scheduler.NewPlacer(f.Cluster),
		Class:  models.ClassOf(f.Spec()),
		xm:     xfer.NewManager(f),
	}
	for node := 0; node < len(f.Nodes); node++ {
		var row []*sim.Resource
		for g := 0; g < f.Spec().NumGPUs; g++ {
			row = append(row, sim.NewResource(e, slots))
		}
		c.gpus = append(c.gpus, row)
		c.hosts = append(c.hosts, sim.NewResource(e, HostSlots))
	}
	return c
}

// SqueezeGPUMemory consumes GPU memory on every node so that only `leave`
// bytes remain free per GPU (models co-resident models/functions for the
// limited-memory experiments).
func (c *Cluster) SqueezeGPUMemory(leave int64) {
	for _, nf := range c.Fabric.Nodes {
		for _, dev := range nf.GPUs {
			if dev.Free() > leave {
				if _, err := dev.Alloc(dev.Free() - leave); err != nil {
					panic(err)
				}
			}
		}
	}
}

// EdgeKind classifies a data-passing edge for latency breakdowns.
type EdgeKind int

const (
	// EdgeGPUGPU is gFn→gFn.
	EdgeGPUGPU EdgeKind = iota
	// EdgeGPUHost is any edge with exactly one GPU endpoint.
	EdgeGPUHost
	// EdgeCPUCPU is cFn→cFn.
	EdgeCPUCPU
)

// App is one deployed workflow application.
type App struct {
	C         *Cluster
	WF        *workflow.Workflow
	Batch     int
	Placement scheduler.Placement
	// SLO is the workflow-level objective (SLOScale × standalone critical
	// path).
	SLO time.Duration

	// XferGPU/XferHost/Compute keep running means of the per-request sums
	// of gFn-gFn passing, gFn-host passing, and compute.
	XferGPU  metrics.Mean
	XferHost metrics.Mean
	Compute  metrics.Mean
	// E2EClass records the latency of every request the app ever
	// completed, once, in the distribution of its QoS class (indexed by
	// QoS): bounded, exact up to metrics.DistCap samples and within 2^-10
	// after them (see metrics.Dist). E2E views both classes as one. Replay
	// swaps in empty distributions while it runs, so its percentiles cover
	// its own completions, and merges the earlier samples back in before it
	// returns; read E2EClass and E2E between replays, not from a hook
	// during one.
	E2EClass [2]metrics.Dist

	Completed int
	// Shed counts requests dropped by SLO admission control; ShedByClass
	// splits the count by QoS class. Every submitted request either
	// completes or is shed — the counters account for every drop.
	Shed        int
	ShedByClass [2]int
	seedBase    int64

	// Admit, when non-nil, gates every request submission (the front-door
	// router's SLO admission control installs itself here; see AdmitFn). Nil
	// leaves the launch path byte-identical to the pre-admission runtime.
	Admit AdmitFn

	// SLOAttainment, when non-nil, reports the installing router's predicted
	// per-class SLO attainment in [0,1] (QoSLow, QoSHigh order). The elastic
	// pool controller folds its minimum into PoolMetrics.Attainment so
	// SLO-aware autoscalers can scale on predicted miss rate.
	SLOAttainment func() (low, high float64)

	// OnComplete, when non-nil, observes every request completion (sequence
	// number, completion instant, end-to-end latency) in event context.
	// ShardedReplay chains onto it to read each pod's last completion
	// instant; it must not start new simulation activity.
	OnComplete func(seq int64, at, e2e time.Duration)

	// Cold configures serverless provisioning (disabled = pre-warmed, the
	// paper's default per §5).
	Cold       ColdStartPolicy
	coldStarts int64

	// pools holds every stage instance's replica pool in stage declaration
	// order, replicas ascending (see elastic.go); elastic is the pool
	// controller once EnableElastic has run.
	pools   []*poolState
	elastic *ElasticPools

	// OnPoolChange, when non-nil, observes every routable-pool membership
	// change (scale-out completion, cordon, crash blacklist, recovery) in
	// event context. The front-door router refreshes its worker snapshot
	// from it; the hook must not start simulation activity. pool aliases
	// the stage's routable view and is valid only until the next membership
	// change: the router's poolChanged keeps none of it, and a hook that
	// keeps it must copy it.
	OnPoolChange func(si scheduler.StageInst, pool []fabric.Location)

	// Route, when non-nil, overrides the round-robin pool-member selection
	// for every stage activation (the front-door router installs itself
	// here; see RouteFn).
	Route RouteFn

	// Breakdown, when non-nil, records a per-request critical-path latency
	// attribution (see EnableBreakdown).
	Breakdown *Breakdown

	// reqPlan is the request-invariant execution plan (see plan.go) and
	// freeStates the pool of recycled per-request working states.
	reqPlan    *invokePlan
	freeStates []*reqState
	// freeDefers is the pool of parked admission attempts (see deferred).
	freeDefers []*deferred
}

// Deploy places wf's instances, seeds each stage instance's replica pool
// with its placement, and returns the app. batch <= 0 uses the workflow
// default. opt.Seed seeds the skips of probabilistic stages: request seq
// draws from seed opt.Seed+seq.
func (c *Cluster) Deploy(wf *workflow.Workflow, batch int, opt scheduler.Options) *App {
	if err := wf.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		batch = wf.Batch
	}
	c.Placer.Trace = obs.TracerOf(c.Engine)
	app := &App{
		C:         c,
		WF:        wf,
		Batch:     batch,
		Placement: c.Placer.Place(wf, opt),
		seedBase:  opt.Seed,
	}
	now := c.Engine.Now()
	for _, s := range wf.Stages {
		for r := 0; r < s.ReplicaCount(); r++ {
			si := scheduler.StageInst{Stage: s.Name, Replica: r}
			app.pools = append(app.pools, newPool(si, s, app.Placement[si], batch, now))
		}
	}
	scale := wf.SLOScale
	if scale == 0 {
		scale = 1.5
	}
	app.SLO = time.Duration(scale * float64(wf.StandaloneLatency(c.Class, batch)))
	return app
}

// instIn describes one input a stage instance pulls.
type instIn struct {
	fut  *sim.Future[dataplane.DataRef]
	prod scheduler.StageInst
	kind EdgeKind
}

// inputsOf lists the producer instances feeding replica r of stage s.
func (a *App) inputsOf(s *workflow.Stage, r int) []instIn {
	var out []instIn
	for _, dn := range s.Deps {
		d := a.WF.Stage(dn)
		kind := edgeKind(d, s)
		if d.ReplicaCount() == s.ReplicaCount() && s.ReplicaCount() > 1 {
			out = append(out, instIn{prod: scheduler.StageInst{Stage: dn, Replica: r}, kind: kind})
			continue
		}
		for i := 0; i < d.ReplicaCount(); i++ {
			out = append(out, instIn{prod: scheduler.StageInst{Stage: dn, Replica: i}, kind: kind})
		}
	}
	return out
}

// putKind classifies a producer's Put by its first consumer.
func (a *App) putKind(s *workflow.Stage) EdgeKind {
	cons := a.WF.Consumers(s)
	if len(cons) == 0 {
		return EdgeCPUCPU
	}
	return edgeKind(s, cons[0])
}

func edgeKind(from, to *workflow.Stage) EdgeKind {
	switch {
	case from.IsGPU() && to.IsGPU():
		return EdgeGPUGPU
	case !from.IsGPU() && !to.IsGPU():
		return EdgeCPUCPU
	default:
		return EdgeGPUHost
	}
}

func (c *Cluster) resourceAt(loc fabric.Location) *sim.Resource {
	if loc.IsHost() {
		return c.hosts[loc.Node]
	}
	return c.gpus[loc.Node][loc.GPU]
}

// GPULoad reports one GPU's compute-slot load: processes waiting to acquire
// and slots currently held. It is the router's queue-depth signal.
func (c *Cluster) GPULoad(node, gpu int) (waiting, held int) {
	r := c.gpus[node][gpu]
	return r.QueueLen(), r.InUse()
}

// SetQueueAging enables priority aging on every GPU compute-slot queue: a
// waiting request's effective QoS class rises one level per d waited, so
// sustained QoSHigh load cannot starve QoSLow requests.
func (c *Cluster) SetQueueAging(d time.Duration) {
	for _, row := range c.gpus {
		for _, r := range row {
			r.SetAging(d)
		}
	}
}

// MeasureThroughput runs `concurrency` closed loops for dur of virtual time
// and returns completed requests per second.
func (a *App) MeasureThroughput(concurrency int, dur time.Duration) float64 {
	e := a.C.Engine
	base := e.Now()
	before := a.Completed
	for i := 0; i < concurrency; i++ {
		e.Go(fmt.Sprintf("loop-%d", i), func(p *sim.Proc) {
			for p.Now()-base < dur {
				done := sim.NewSignal(e)
				a.startReq(Request{}, done)
				done.Wait(p)
			}
		})
	}
	e.Run(base + dur)
	elapsed := e.Now() - base
	if elapsed <= 0 {
		return 0
	}
	return float64(a.Completed-before) / elapsed.Seconds()
}

// E2E returns the latency distribution of every request the app ever
// completed. When one QoS class holds every completion it is that class's
// distribution; otherwise it is a new merge of the two, which answers as
// one distribution fed both classes' samples (see metrics.Dist.Merge).
func (a *App) E2E() *metrics.Dist {
	lo, hi := &a.E2EClass[QoSLow], &a.E2EClass[QoSHigh]
	switch {
	case hi.Count() == 0:
		return lo
	case lo.Count() == 0:
		return hi
	}
	d := new(metrics.Dist)
	d.Merge(lo)
	d.Merge(hi)
	return d
}

// SLOCompliance returns the fraction of completed requests within the app's
// SLO. It is exact while E2E holds at most metrics.DistCap samples; past
// them it never overstates compliance (see metrics.Dist.FractionUnder).
func (a *App) SLOCompliance() float64 { return a.E2E().FractionUnder(a.SLO) }

// Spec returns the cluster's topology spec.
func (c *Cluster) Spec() *topology.Spec { return c.Fabric.Spec() }
