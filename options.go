package grouter

import (
	"grouter/internal/cluster"
	"grouter/internal/router"
)

// simOptions collects NewSim's functional-option state.
type simOptions struct {
	nodes      int
	seed       int64
	trace      bool
	faults     bool
	coalesce   bool
	shards     int
	router     bool
	routerCfg  router.Config
	elastic    bool
	elasticCfg cluster.ElasticConfig
	pd         bool
	pdCfg      router.PDPolicyConfig
	slo        bool
	sloCfg     router.SLOConfig
}

func defaultSimOptions() simOptions { return simOptions{nodes: 1} }

// Option configures a Sim under construction; see NewSim.
type Option func(*simOptions)

// WithNodes sets the number of nodes in the simulated cluster (default 1).
func WithNodes(n int) Option { return func(o *simOptions) { o.nodes = n } }

// WithSeed sets the seed inherited by data planes built without an explicit
// Config (it drives randomized placement in ablated variants; the full
// system is deterministic regardless).
func WithSeed(seed int64) Option { return func(o *simOptions) { o.seed = seed } }

// WithTracer attaches a virtual-time span tracer to the simulation before
// the fabric is built; retrieve it with Sim.Tracer.
func WithTracer() Option { return func(o *simOptions) { o.trace = true } }

// WithFaults attaches a fault injector for link failures, GPU crashes, and
// memory pressure; retrieve it with Sim.Faults.
func WithFaults() Option { return func(o *simOptions) { o.faults = true } }

// WithScaleDefaults configures the Sim the way the scale-replay experiment
// (grouter-bench -run ext-scale) drives it: a 2-node cluster with the
// canonical replay seed. Combine with the "dgx-v100" spec and App.Replay's
// batched admission (ReplaySpec.Quantum) to reproduce the replay setup;
// later options override individual fields.
func WithScaleDefaults() Option {
	return func(o *simOptions) {
		o.nodes = 2
		o.seed = 42
	}
}

// WithShards sets the number of engine shards ReplayScaleOut executes the
// pod fleet on (default 1, the single-shard determinism oracle). It is a
// pure execution knob: shard counts change wall-clock time only, never
// results — ReplayScaleOut output is byte-identical for any value.
func WithShards(n int) Option { return func(o *simOptions) { o.shards = n } }

// WithRouter sets the default configuration Sim.NewRouter attaches to apps:
// with no argument the scored production config (router.DefaultConfig), or
// an explicit RouterConfig. The router itself attaches per deployed app —
// call Sim.NewRouter(app) after Deploy.
func WithRouter(cfg ...RouterConfig) Option {
	return func(o *simOptions) {
		o.router = true
		o.routerCfg = router.DefaultConfig()
		if len(cfg) > 0 {
			o.routerCfg = cfg[0]
		}
	}
}

// WithAutoscaler sets the default elastic-pool configuration Sim.Autoscale
// attaches to apps: with no argument the reactive production defaults
// (DefaultElasticConfig), or an explicit ElasticConfig. The pools themselves
// attach per deployed app — call Sim.Autoscale(app) after Deploy.
func WithAutoscaler(cfg ...ElasticConfig) Option {
	return func(o *simOptions) {
		o.elastic = true
		o.elasticCfg = cluster.DefaultElastic()
		if len(cfg) > 0 {
			o.elasticCfg = cfg[0]
		}
	}
}

// WithSLO sets the per-class SLO admission configuration Sim.NewRouter
// folds into routers it attaches: requests predicted to miss their class
// latency budget are deferred in a bounded virtual-time delay queue and
// then shed (App.Submit returns ErrSLOShed on an immediate shed). An
// explicit RouterConfig argument to NewRouter that already carries an
// enabled SLO takes precedence:
//
//	s := grouter.MustNewSim("dgx-v100", grouter.WithSLO(grouter.RouterSLOConfig{
//	    High: grouter.RouterSLOClass{Budget: 40 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
//	    Low:  grouter.RouterSLOClass{Budget: 120 * time.Millisecond, MaxDelay: 2 * time.Millisecond},
//	}))
func WithSLO(cfg RouterSLOConfig) Option {
	return func(o *simOptions) {
		o.slo = true
		o.sloCfg = cfg
	}
}

// WithPD sets the default prefill/decode routing policy Sim.NewPDRouter
// attaches to LLM services: with no argument the production policy
// (DefaultPDPolicy), or an explicit PDPolicyConfig. The policy itself
// attaches per deployed service — call Sim.NewPDRouter(svc) after
// Runtime.DeployLLM.
func WithPD(cfg ...PDPolicyConfig) Option {
	return func(o *simOptions) {
		o.pd = true
		o.pdCfg = router.DefaultPDPolicy()
		if len(cfg) > 0 {
			o.pdCfg = cfg[0]
		}
	}
}

// WithCoalescing enables fan-out-aware transfer coalescing in planes built
// by Sim.NewGRouter without an explicit Config: concurrent Gets of one
// object to the same GPU share a transfer, and later consumers pull from the
// nearest replica instead of the producer's links.
func WithCoalescing() Option { return func(o *simOptions) { o.coalesce = true } }
