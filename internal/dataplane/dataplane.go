// Package dataplane defines the interface every serverless data plane in
// this repository implements — GROUTER and the three baselines (INFless+,
// NVSHMEM+, DeepPlan+) — plus the per-plane statistics the experiments
// report. Experiments are written against Plane, so systems swap with one
// line.
package dataplane

import (
	"time"

	"grouter/internal/fabric"
	"grouter/internal/sim"
)

// DataID is a globally unique identifier for one intermediate-data object
// (§4.2.1: returned by Put, passed to downstream functions).
type DataID uint64

// DataRef names a stored object and its size.
type DataRef struct {
	ID    DataID
	Bytes int64
}

// FnCtx describes the invoking function instance to the data plane. GROUTER
// exploits every field; baselines ignore the ones their designs cannot see
// (most importantly Loc for placement-agnostic GPU stores).
type FnCtx struct {
	// Fn and Workflow identify the function for per-function statistics and
	// storage pre-warming.
	Fn       string
	Workflow string
	// Loc is the physical location of the function instance (GPU for gFns,
	// host for cFns).
	Loc fabric.Location
	// Slack is the transfer budget the function's latency objective leaves
	// once its expected compute time is spent, as harvest.Slack computes
	// it: zero when the function has no objective, else the objective less
	// the compute time, or 1 ms when compute spends the whole objective. It
	// sets the minimum transfer rate Rate_least = bytes/Slack of §4.3.2
	// (harvest.Options).
	Slack time.Duration
	// ConsumerSeq orders the downstream invocation that will consume this
	// function's output in the global request queue; the queue-aware
	// eviction policy of §4.4.2 uses it.
	ConsumerSeq int64
}

// Plane is a serverless data plane: Put stores a function's output, Get
// makes a stored object available at the caller's location, Free drops it.
// All methods run in simulated time from a sim process.
type Plane interface {
	Name() string
	Put(p *sim.Proc, ctx *FnCtx, bytes int64) (DataRef, error)
	Get(p *sim.Proc, ctx *FnCtx, ref DataRef) error
	Free(ref DataRef)
	Stats() *Stats
}

// Stats aggregates a plane's activity for the overhead experiments
// (Fig. 20b/20c) and copy-count assertions.
type Stats struct {
	Puts int64
	Gets int64
	// Copies counts device-level data movements (the redundant-copy metric
	// of §3.1: the optimum for a gFn-gFn exchange is 1).
	Copies int64
	// BytesMoved totals payload bytes crossing any link.
	BytesMoved int64
	// ControlOps counts control-plane actions (lookups, placement queries,
	// monitor updates) for the CPU-overhead comparison.
	ControlOps int64
	// ControlCPU accumulates estimated control-plane CPU time.
	ControlCPU time.Duration

	// Coalesce counts fan-out-aware transfer coalescing activity; all zero
	// unless the plane runs with coalescing enabled.
	Coalesce CoalesceStats
}

// CoalesceStats breaks down how coalesced Gets were served. OriginBytes vs
// ReplicaBytes is the fan-out experiment's headline metric: every byte in
// ReplicaBytes is a byte the producer GPU's own links did not have to carry.
type CoalesceStats struct {
	// Joined counts Gets that attached to an in-flight transfer of the same
	// object to the same destination (true dedup: zero extra bytes moved).
	Joined int64
	// Chained counts Gets sourced from a destination whose copy was still in
	// flight when the source was chosen (the multicast-chain hop).
	Chained int64
	// ReplicaHits counts Gets served from a registered replica that was
	// already resident when the Get arrived.
	ReplicaHits int64
	// LocalHits counts Gets that found a replica already resident on the
	// requesting GPU (zero-copy map, like hitting the primary locally).
	LocalHits int64
	// OriginGets counts Gets that pulled from the object's primary location.
	OriginGets int64
	// OriginBytes / ReplicaBytes split transferred payload bytes by whether
	// the source was the primary copy or a replica/chained copy.
	OriginBytes  int64
	ReplicaBytes int64
}

// AddControl records n control operations at the given per-op CPU cost.
func (s *Stats) AddControl(n int64, perOp time.Duration) {
	s.ControlOps += n
	s.ControlCPU += time.Duration(n) * perOp
}
