package grouter

// simOptions collects NewSim's functional-option state.
type simOptions struct {
	nodes    int
	seed     int64
	trace    bool
	faults   bool
	coalesce bool
	shards   int
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

// WithShards sets the number of engine shards ReplayScaleOut executes the
// pod fleet on (default 1, the single-shard determinism oracle). It is a
// pure execution knob: shard counts change wall-clock time only, never
// results — ReplayScaleOut output is byte-identical for any value.
func WithShards(n int) Option { return func(o *simOptions) { o.shards = n } }

// WithCoalescing enables fan-out-aware transfer coalescing in planes built
// by Sim.NewGRouter without an explicit Config: concurrent Gets of one
// object to the same GPU share a transfer, and later consumers pull from the
// nearest replica instead of the producer's links.
func WithCoalescing() Option { return func(o *simOptions) { o.coalesce = true } }
