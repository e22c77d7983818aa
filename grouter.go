// Package grouter is a GPU-centric data plane for serverless inference
// workflows, reproducing "Efficient Data Passing for Serverless Inference
// Workflows: A GPU-Centric Approach" (EuroSys 2026) on a simulated GPU
// cluster substrate.
//
// The package is a convenience façade over the library's subsystems; user
// programs never import grouter/internal/... paths:
//
//   - grouter.NewSim builds a deterministic simulated cluster (DGX-V100,
//     DGX-A100, 8×H800 or 4×A10 nodes), configured through functional
//     options: WithNodes, WithSeed, WithTracer, WithFaults, WithCoalescing;
//   - Sim.NewGRouter / NewINFless / NewNVShmem / NewDeepPlan construct the
//     data planes, all implementing the same Plane interface (Put/Get/Free);
//   - Sim.NewCluster wires a data plane into a serverless runtime that
//     deploys workflow DAGs and executes requests;
//   - Sim.Tracer and Sim.Faults expose the virtual-time tracer and the
//     fault injector when the corresponding options are set.
//
// See examples/quickstart for the shortest end-to-end program and
// cmd/grouter-bench for the paper-reproduction experiments.
package grouter

import (
	"fmt"
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/baselines"
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/faults"
	"grouter/internal/kvcache"
	"grouter/internal/models"
	"grouter/internal/obs"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// Re-exported core types: the façade lets downstream code use the library
// without spelling internal import paths.
type (
	// Plane is a serverless data plane (GROUTER or a baseline). Get returns
	// ErrNotFound for an unknown or freed object and ErrGPUDown when a
	// crash-lost object cannot be recovered; Put returns ErrEvicted when
	// storage cannot make room even by spilling to host memory. Either
	// returns ErrPathsDown when a transfer gives up after its retries
	// without delivering every byte.
	Plane = dataplane.Plane
	// FnCtx identifies the calling function instance to the data plane.
	FnCtx = dataplane.FnCtx
	// DataRef names a stored intermediate-data object.
	DataRef = dataplane.DataRef
	// DataID is the global identifier inside a DataRef.
	DataID = dataplane.DataID
	// Stats aggregates a plane's activity counters.
	Stats = dataplane.Stats
	// CoalesceStats breaks down how coalesced Gets were served.
	CoalesceStats = dataplane.CoalesceStats
	// Location is a physical placement (node + GPU, or host memory).
	Location = fabric.Location
	// Config toggles GROUTER's optimizations (all enabled by default).
	Config = core.Config
	// Proc is a cooperative simulation process.
	Proc = sim.Proc
	// Signal is a one-shot completion notification; App.Submit and
	// LLMService.Submit return one fired when the request finishes.
	Signal = sim.Signal
	// Runtime is the serverless cluster runtime (deploys workflow DAGs).
	Runtime = cluster.Cluster
	// App is one deployed workflow application on a Runtime.
	App = cluster.App
	// ReplayStats summarizes one replayed trace in virtual time.
	ReplayStats = cluster.ReplayStats
	// ScaleOutOptions configures ReplayScaleOut's pod fleet and sharded
	// execution (fleet shape is part of the result; shards are not).
	ScaleOutOptions = cluster.ShardedOptions
	// ScaleOutStats reports a ReplayScaleOut run: deterministic fleet-level
	// and per-pod results plus wall-clock shard utilization.
	ScaleOutStats = cluster.ShardedStats
	// PodReplay is one pod's share of a ReplayScaleOut run.
	PodReplay = cluster.PodReplay
	// ShardUtil is one engine shard's wall-clock busy/wait utilization.
	ShardUtil = sim.ShardUtil
	// Workflow is a DAG of serverless function stages.
	Workflow = workflow.Workflow
	// PlaceOptions constrains where a workflow's stages are placed.
	PlaceOptions = scheduler.Options
	// Tracer records virtual-time spans; export with its Perfetto/JSON
	// writers. Attached to a Sim via WithTracer.
	Tracer = obs.Tracer
	// FaultInjector schedules link failures, GPU crashes, and memory
	// pressure in virtual time. Attached to a Sim via WithFaults. Links go
	// by name ("n0.nic1.tx", "n1.nv.0>3"); a call with an unknown name or
	// a bad window returns ErrUnknownLink or ErrBadWindow, scheduling nothing.
	FaultInjector = faults.Injector
	// Crasher is anything whose GPUs a FaultInjector can crash; both the
	// GROUTER plane and the runtime's planes implement it.
	Crasher = faults.Crasher
	// Router is the scored front-door request router; attach one to a
	// deployed app with Sim.NewRouter.
	Router = router.Router
	// RouterConfig tunes a Router (scoring weights, top-k, snapshot
	// refresh, QoS aging, crash blacklist).
	RouterConfig = router.Config
	// RouterWeights are the router's multi-objective scoring coefficients
	// (Session weights the session-affinity bias).
	RouterWeights = router.Weights
	// RouterStats counts a Router's decisions, refreshes, failovers,
	// admission outcomes, and affinity hits.
	RouterStats = router.Stats
	// RouterSLOConfig is the router's per-class SLO admission configuration;
	// set it on RouterConfig.SLO.
	RouterSLOConfig = router.SLOConfig
	// RouterSLOClass is one QoS class's admission objective (latency budget
	// plus the deferral bound).
	RouterSLOClass = router.SLOClass
	// WorkerState is one worker's entry in the router's metrics snapshot.
	WorkerState = router.WorkerState
	// Elastic manages per-stage elastic instance pools on a deployed app;
	// attach one with Sim.Autoscale.
	Elastic = cluster.ElasticPools
	// ElasticConfig tunes elastic pools (strategy, replica bounds, controller
	// interval, scale-in cooldown).
	ElasticConfig = cluster.ElasticConfig
	// ElasticStats counts an Elastic's scale-outs, scale-ins, drains,
	// crashes, and recoveries.
	ElasticStats = cluster.ElasticStats
	// Autoscaler decides a pool's desired replica count from its metrics;
	// implement it to plug a custom strategy into ElasticConfig.Scaler.
	Autoscaler = autoscale.Autoscaler
	// PoolMetrics is the per-pool observation an Autoscaler sizes against.
	PoolMetrics = autoscale.PoolMetrics
	// FixedScaler pins a pool at a constant replica count.
	FixedScaler = autoscale.Fixed
	// ReactiveScaler scales on queue depth per active replica.
	ReactiveScaler = autoscale.Reactive
	// TargetUtilScaler sizes pools to hold a per-instance load setpoint.
	TargetUtilScaler = autoscale.TargetUtilization
	// PredictiveScaler sizes pools against a least-squares load forecast.
	PredictiveScaler = autoscale.Predictive
	// SLOAwareScaler scales on the router's predicted SLO miss rate
	// (PoolMetrics.Attainment) instead of raw queue depth.
	SLOAwareScaler = autoscale.SLOAware
	// QoS is a request priority class (QoSHigh skips QoSLow in worker
	// queues); set it per request with ReqQoS, or per replayed arrival
	// through ReplaySpec.RequestAt.
	QoS = cluster.QoS
	// LLMService is a deployed prefill/decode LLM serving app; build one
	// with Runtime.DeployLLM. It places each request itself: long-prompt
	// requests split across prefill/decode worker pairs with the KV cache
	// handed off over the data plane, short ones run colocated, and
	// saturated PD capacity overflows back to colocated execution:
	//
	//	svc, err := c.DeployLLM(grouter.PDConfig{
	//	    LLM:            grouter.MustLookupLLM("llama-7b"),
	//	    PrefillWorkers: 1, DecodeWorkers: 1, MixedWorkers: 6,
	//	})
	//	done, err := svc.Submit(grouter.NewRequest(
	//	    grouter.ReqPrompt(8192), grouter.ReqSession(7)))
	LLMService = cluster.LLMService
	// PDConfig sizes a DeployLLM service and tunes its placement: served
	// model, prefill/decode/mixed worker partition, default output length,
	// long-prompt threshold and saturation depth.
	PDConfig = cluster.PDConfig
	// PDStats counts an LLMService's placement and KV-handoff activity.
	PDStats = cluster.PDStats
	// TraceSpec parameterizes synthetic arrival-trace generation.
	TraceSpec = trace.Spec
	// TracePattern selects the arrival process shape.
	TracePattern = trace.Pattern
	// KVSystem selects a KV-cache passing implementation.
	KVSystem = kvcache.System
	// KVCluster is the LLM KV-cache benchmark cluster.
	KVCluster = kvcache.Cluster
	// MoAConfig parameterizes a Mixture-of-Agents run on a KVCluster.
	MoAConfig = kvcache.MoAConfig
	// LLM describes a served LLM (weights, KV bytes/token, speeds).
	LLM = models.LLM
)

// HostGPU marks host memory in a Location.
const HostGPU = fabric.HostGPU

// Request priority classes (see QoS).
const (
	QoSLow  = cluster.QoSLow
	QoSHigh = cluster.QoSHigh
)

// DefaultRouterConfig returns the scored production router configuration.
func DefaultRouterConfig() RouterConfig { return router.DefaultConfig() }

// Arrival-trace patterns (TraceSpec.Pattern).
const (
	Sporadic = trace.Sporadic
	Periodic = trace.Periodic
	Bursty   = trace.Bursty
)

// KV-cache passing systems for KVCluster benchmarks.
const (
	SysINFless  = kvcache.SysINFless
	SysMooncake = kvcache.SysMooncake
	SysGRouter  = kvcache.SysGRouter
)

// FullConfig returns the complete GROUTER system configuration.
func FullConfig() Config { return core.FullConfig() }

// GenerateTrace synthesizes request arrival offsets for the given spec.
func GenerateTrace(s TraceSpec) []time.Duration { return trace.Generate(s) }

// TrafficWorkflow returns the paper's Fig. 1 traffic-monitoring pipeline.
func TrafficWorkflow() *Workflow { return workflow.Traffic() }

// DrivingWorkflow returns the latency-critical road-segmentation workflow.
func DrivingWorkflow() *Workflow { return workflow.Driving() }

// VideoWorkflow returns the transfer-intensive video-analytics workflow.
func VideoWorkflow() *Workflow { return workflow.Video() }

// MustLookupLLM returns a profiled LLM by name ("llama-7b", ...), panicking
// on an unknown name.
func MustLookupLLM(name string) *LLM { return models.MustLookupLLM(name) }

// Sim is one deterministic simulation universe: an engine plus a cluster
// fabric. Every Sim is independent; identical inputs produce identical
// results.
type Sim struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric

	opts     simOptions
	tracer   *obs.Tracer
	injector *faults.Injector
}

// NewSim builds a simulation of the named topology — "dgx-v100", "dgx-a100",
// "h800x8", or "quad-a10" — with one node unless WithNodes says otherwise:
//
//	s, err := grouter.NewSim("dgx-v100", grouter.WithNodes(2),
//	    grouter.WithSeed(7), grouter.WithTracer(), grouter.WithCoalescing())
func NewSim(spec string, opts ...Option) (*Sim, error) {
	s := topology.SpecByName(spec)
	if s == nil {
		return nil, fmt.Errorf("grouter: unknown topology %q", spec)
	}
	o := defaultSimOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.nodes < 1 {
		return nil, fmt.Errorf("grouter: simulation needs at least 1 node, got %d", o.nodes)
	}
	e := sim.NewEngine()
	sm := &Sim{Engine: e, opts: o}
	if o.trace {
		// Attach before the fabric exists so no early span is missed.
		sm.tracer = obs.Attach(e)
	}
	sm.Fabric = fabric.New(e, s, o.nodes)
	if o.faults {
		sm.injector = faults.NewInjector(sm.Fabric)
	}
	return sm, nil
}

// MustNewSim is NewSim for tests and examples; it panics on a bad spec.
func MustNewSim(spec string, opts ...Option) *Sim {
	s, err := NewSim(spec, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Close terminates the simulation and its background processes.
func (s *Sim) Close() { s.Engine.Close() }

// Run executes the simulation until all non-daemon activity completes.
func (s *Sim) Run() { s.Engine.Run(0) }

// Go spawns a simulation process.
func (s *Sim) Go(name string, body func(p *Proc)) { s.Engine.Go(name, body) }

// Schedule runs fn at the given virtual time (for request arrival traces).
func (s *Sim) Schedule(at time.Duration, fn func()) { s.Engine.Schedule(at, fn) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.Engine.Now() }

// Tracer returns the virtual-time tracer, or nil unless the Sim was built
// WithTracer.
func (s *Sim) Tracer() *Tracer { return s.tracer }

// Faults returns the fault injector, or nil unless the Sim was built
// WithFaults.
func (s *Sim) Faults() *FaultInjector { return s.injector }

// NewGRouter builds the GPU-centric data plane on this simulation. With no
// argument it runs the full system, inheriting the Sim's WithSeed and
// WithCoalescing options; an explicit Config overrides all of that.
func (s *Sim) NewGRouter(cfg ...Config) Plane {
	c := FullConfig()
	c.Seed = s.opts.seed
	c.Coalesce = s.opts.coalesce
	if len(cfg) > 0 {
		c = cfg[0]
	}
	return core.New(s.Fabric, c)
}

// NewINFless builds the host-centric baseline.
func (s *Sim) NewINFless() Plane { return baselines.NewINFless(s.Fabric) }

// NewNVShmem builds the placement-agnostic GPU-store baseline.
func (s *Sim) NewNVShmem(seed int64) Plane { return baselines.NewNVShmem(s.Fabric, seed) }

// NewDeepPlan builds the parallel-PCIe GPU-store baseline.
func (s *Sim) NewDeepPlan(seed int64) Plane { return baselines.NewDeepPlan(s.Fabric, seed) }

// NewCluster wires a data plane into a serverless runtime on this Sim's
// fabric, so the runtime shares the Sim's tracer and fault injector:
//
//	c := s.NewCluster(func(s *grouter.Sim) grouter.Plane { return s.NewGRouter() })
//	app := c.Deploy(grouter.TrafficWorkflow(), 0, grouter.PlaceOptions{Node: 0})
func (s *Sim) NewCluster(mkPlane func(s *Sim) Plane) *Runtime {
	return cluster.NewOnFabric(s.Fabric, 1, func(*fabric.Fabric) dataplane.Plane {
		return mkPlane(s)
	})
}

// NewRouter attaches a scored front-door router to a deployed app: stage
// activations route to the best-scored healthy pool instance instead of
// round-robin. It runs the explicit configuration, if one is given, or
// DefaultRouterConfig; set RouterConfig.SLO for per-class admission. When
// the Sim carries a fault injector (WithFaults), the router subscribes to
// its GPU crash signals and fails over away from crashed workers:
//
//	app := c.Deploy(grouter.DrivingWorkflow(), 0, grouter.PlaceOptions{Node: 0})
//	rt := s.NewRouter(app)
//	app.Replay(arrivals, grouter.ReplaySpec{RequestAt: func(i int) grouter.Request {
//	    if (i+1)%10 == 0 {
//	        return grouter.NewRequest(grouter.ReqQoS(grouter.QoSHigh))
//	    }
//	    return grouter.NewRequest()
//	}})
func (s *Sim) NewRouter(app *App, cfg ...RouterConfig) *Router {
	c := router.DefaultConfig()
	if len(cfg) > 0 {
		c = cfg[0]
	}
	r := router.New(app, c)
	if s.injector != nil {
		r.WatchFaults(s.injector)
	}
	return r
}

// DefaultElasticConfig returns the reactive production elastic-pool
// configuration (queue-depth reactive scaler, 1 to 4 replicas per stage,
// 250 ms controller interval, 500 ms scale-in cooldown).
func DefaultElasticConfig() ElasticConfig { return cluster.DefaultElastic() }

// Autoscale enables elastic per-stage instance pools on a deployed app:
// a virtual-time controller grows and shrinks each GPU stage's pool between
// the configured bounds, draining instances before teardown. It runs the
// explicit configuration, if one is given, or DefaultElasticConfig. When the
// Sim carries a fault injector (WithFaults), the pools subscribe to its GPU
// crash signals and route around crashed replicas until they recover:
//
//	app := c.Deploy(grouter.DrivingWorkflow(), 0, grouter.PlaceOptions{Node: 0})
//	ep := s.Autoscale(app, grouter.ElasticConfig{
//	    Scaler: grouter.ReactiveScaler{ScaleOutDepth: 2, ScaleIn: true},
//	    Min:    1, Max: 4,
//	})
//	app.Replay(arrivals, grouter.ReplaySpec{})
//	fmt.Println(ep.GPUSeconds(), ep.Stats)
func (s *Sim) Autoscale(app *App, cfg ...ElasticConfig) *Elastic {
	c := cluster.DefaultElastic()
	if len(cfg) > 0 {
		c = cfg[0]
	}
	ep := app.EnableElastic(c)
	if s.injector != nil {
		ep.WatchFaults(s.injector)
	}
	return ep
}

// NewKVCluster builds an n-node LLM KV-cache benchmark cluster on this
// simulation's engine. It carries its own 8×H800 fabric, sized for
// tensor-parallel KV exchange, independent of the Sim's fabric.
func (s *Sim) NewKVCluster(n int) *KVCluster { return kvcache.NewCluster(s.Engine, n) }

// ReplayScaleOut replays an arrival trace over a fleet of independent pods —
// each a full cluster of the named topology whose data plane and workflow
// the buildPod callback deploys — executed on the sharded parallel engine:
//
//	st, err := grouter.ReplayScaleOut("dgx-v100", arrivals,
//	    func(pod int, s *grouter.Sim) *grouter.App {
//	        c := s.NewCluster(func(s *grouter.Sim) grouter.Plane { return s.NewGRouter() })
//	        return c.Deploy(grouter.DrivingWorkflow(), 0, grouter.PlaceOptions{Node: 0})
//	    },
//	    grouter.WithNodes(2), grouter.WithShards(4))
//
// buildPod runs once per pod on that pod's private Sim (sharing the shard
// engine hosting the pod) and must build every pod identically given the
// same index. WithShards picks the shard count — a pure execution knob; the
// returned stats' deterministic fields are byte-identical for any value.
// WithTracer attaches a shard-tagged tracer per shard, returned in
// ScaleOutStats.Tracers and mergeable into one Chrome trace. Request i goes
// to pod i mod ScaleOutOptions' default fleet width (8 pods).
func ReplayScaleOut(spec string, arrivals []time.Duration, buildPod func(pod int, s *Sim) *App, opts ...Option) (ScaleOutStats, error) {
	ts := topology.SpecByName(spec)
	if ts == nil {
		return ScaleOutStats{}, fmt.Errorf("grouter: unknown topology %q", spec)
	}
	o := defaultSimOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.nodes < 1 {
		return ScaleOutStats{}, fmt.Errorf("grouter: simulation needs at least 1 node, got %d", o.nodes)
	}
	st := cluster.ShardedReplay(arrivals, cluster.ShardedOptions{
		Shards: o.shards,
		Trace:  o.trace,
	}, func(pod int, e *sim.Engine) *cluster.App {
		sm := &Sim{Engine: e, opts: o, tracer: obs.TracerOf(e)}
		sm.Fabric = fabric.New(e, ts, o.nodes)
		if o.faults {
			sm.injector = faults.NewInjector(sm.Fabric)
		}
		return buildPod(pod, sm)
	})
	return st, nil
}
