// Package xfer executes data transfers over the simulated fabric: it splits
// data into chunks, groups chunks into batches, distributes the bytes over
// one or more link paths proportionally to path capacity, and drives the
// resulting flows through the network simulator.
//
// The chunk/batch pipeline of §4.3.1–4.3.2 is modeled at flow level: the
// per-chunk cudaMemcpyAsync launches and per-batch scheduling points are
// charged as fixed latency constants (they pipeline with the transfer, so
// only the first batch's setup is on the critical path), while preemption at
// batch boundaries is subsumed by the simulator recomputing rates at every
// flow arrival and departure — a strictly finer-grained version of the same
// mechanism.
package xfer

import (
	"errors"
	"fmt"
	"math"
	"time"

	"grouter/internal/fabric"
	"grouter/internal/memsim"
	"grouter/internal/netsim"
	"grouter/internal/obs"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// Transfer tuning constants (paper defaults).
const (
	// DefaultChunkBytes is the transfer chunk size (§4.3.1: 2 MB).
	DefaultChunkBytes = int64(2) << 20
	// DefaultBatchChunks is the number of chunks per batch (§4.3.2: 5).
	DefaultBatchChunks = 5

	// SetupLatency is the one-time cost of initiating a transfer (IPC handle
	// mapping, stream selection).
	SetupLatency = 30 * time.Microsecond
	// BatchLatency is the scheduling cost of the first batch; later batches
	// pipeline behind data movement.
	BatchLatency = 20 * time.Microsecond
	// HostStackLatency is the extra per-transfer cost of a host-mediated
	// network transfer (kernel TCP stack vs GPUDirect RDMA).
	HostStackLatency = 200 * time.Microsecond
)

// Retry defaults: a failed attempt backs off exponentially from
// DefaultBackoffBase, doubling per attempt up to DefaultBackoffCap, for at
// most DefaultMaxAttempts attempts total.
const (
	DefaultMaxAttempts = 4
	DefaultBackoffBase = 50 * time.Microsecond
	DefaultBackoffCap  = 5 * time.Millisecond
)

// Typed request/transfer errors.
var (
	// ErrNoPaths is returned for a request with no candidate paths.
	ErrNoPaths = errors.New("xfer: request has no paths")
	// ErrZeroBytes is returned for a request with a non-positive byte count.
	ErrZeroBytes = errors.New("xfer: request has no bytes")
	// ErrDeadline is returned when a transfer's deadline expires; in-flight
	// flows are canceled.
	ErrDeadline = errors.New("xfer: deadline exceeded")
	// ErrPathsDown is returned when every candidate path crosses a failed
	// link and re-planning produced no alternative.
	ErrPathsDown = errors.New("xfer: no viable path")
)

// RetryPolicy bounds a transfer's recovery from link failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retry); 0 uses
	// DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase is the sleep before the first retry, doubled per attempt;
	// 0 uses DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffCap bounds the backoff; 0 uses DefaultBackoffCap.
	BackoffCap time.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.BackoffBase == 0 {
		r.BackoffBase = DefaultBackoffBase
	}
	if r.BackoffCap == 0 {
		r.BackoffCap = DefaultBackoffCap
	}
	return r
}

// backoff returns the sleep before the given retry attempt (attempt >= 1):
// base << (attempt-1), capped. Deterministic — no jitter — so fault scenarios
// replay identically.
func (r RetryPolicy) backoff(attempt int) time.Duration {
	d := r.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= r.BackoffCap {
			return r.BackoffCap
		}
	}
	if d > r.BackoffCap {
		d = r.BackoffCap
	}
	return d
}

// Path is one candidate route for a transfer.
type Path struct {
	Links []topology.LinkID
	// Bps is the path's bottleneck capacity, used for proportional byte
	// splitting across parallel paths.
	Bps float64
}

// PathOf builds a Path, deriving Bps from the network's link capacities.
func PathOf(net *netsim.Network, links []topology.LinkID) Path {
	return Path{Links: links, Bps: net.PathBps(links)}
}

// Request describes one transfer.
type Request struct {
	Label string
	Bytes int64
	Paths []Path
	// Track is the trace lane the transfer's span is recorded on (typically
	// the request sequence number); 0 is the shared default lane. Ignored
	// when tracing is disabled.
	Track int32
	// Opt carries rate-control constraints applied to every flow of the
	// transfer (min rates are split across paths proportionally).
	Opt netsim.Options
	// HostStack adds HostStackLatency (host-mediated network transfer).
	HostStack bool
	// Pinned, when non-nil, stages the transfer through a node's shared
	// circular pinned buffer: the transfer holds min(Bytes, buffer) bytes of
	// the gate for its duration.
	Pinned *memsim.ByteGate

	// Deadline, when positive, bounds the transfer's total virtual time
	// (measured from the Transfer call). On expiry in-flight flows are
	// canceled and Transfer returns ErrDeadline.
	Deadline time.Duration
	// Retry bounds recovery from link failures; the zero value uses the
	// package defaults.
	Retry RetryPolicy
	// Replan, when non-nil, is consulted before each retry attempt to
	// re-select the candidate paths (e.g. falling back from NVLink to PCIe
	// after a persistent failure). Returning nil keeps the previous paths.
	Replan func(attempt int) []Path
}

// validate checks the request's static invariants.
func (r *Request) validate() error {
	if r.Bytes <= 0 {
		return fmt.Errorf("%w: %q has %d bytes", ErrZeroBytes, r.Label, r.Bytes)
	}
	if len(r.Paths) == 0 {
		return fmt.Errorf("%w: %q", ErrNoPaths, r.Label)
	}
	return nil
}

// Manager executes transfers on a fabric.
type Manager struct {
	Fabric      *fabric.Fabric
	ChunkBytes  int64
	BatchChunks int

	// Scratch reused across the alive-filter → flow-launch window of each
	// attempt. The window contains no yield point, so concurrent transfers
	// (which interleave only at yields in the cooperative simulator) cannot
	// observe each other's scratch.
	aliveScratch []Path
	splitScratch []int64
}

// NewManager returns a manager with paper-default chunking.
func NewManager(f *fabric.Fabric) *Manager {
	return &Manager{Fabric: f, ChunkBytes: DefaultChunkBytes, BatchChunks: DefaultBatchChunks}
}

// Transfer runs the request to completion from process p and returns the
// elapsed virtual time. Flows killed by link failures are retried with
// exponential backoff (only the undelivered bytes are re-sent), consulting
// req.Replan for fresh paths; paths crossing currently-failed links are
// skipped. A nil error means every byte arrived.
func (m *Manager) Transfer(p *sim.Proc, req Request) (time.Duration, error) {
	start := p.Now()
	if err := req.validate(); err != nil {
		return 0, err
	}
	tr := obs.TracerOf(m.Fabric.Engine)
	var span obs.SpanID
	if tr != nil {
		span = tr.BeginOn(req.Track, obs.CatTransfer, req.Label)
		tr.SetAttrInt(span, "bytes", req.Bytes)
	}
	setup := SetupLatency + BatchLatency
	if req.HostStack {
		setup += HostStackLatency
	}
	p.Sleep(setup)
	obs.Account(p, obs.CatSetup, setup)

	var held int64
	if req.Pinned != nil {
		gateStart := p.Now()
		held = req.Pinned.Acquire(p, req.Bytes)
		obs.Account(p, obs.CatQueue, p.Now()-gateStart)
	}
	elapsed, err := m.transferAttempts(p, req, start)
	if req.Pinned != nil && held > 0 {
		req.Pinned.Release(held)
	}
	if tr != nil {
		if err != nil {
			tr.SetAttrStr(span, "error", err.Error())
		}
		tr.End(span)
	}
	return elapsed, err
}

// transferAttempts drives the retry loop: each attempt re-sends the bytes
// still undelivered over the currently-alive subset of the candidate paths.
func (m *Manager) transferAttempts(p *sim.Proc, req Request, start time.Duration) (time.Duration, error) {
	deadline := time.Duration(0)
	if req.Deadline > 0 {
		deadline = start + req.Deadline
	}
	pol := req.Retry.withDefaults()
	paths := req.Paths
	bytes := req.Bytes
	tr := obs.TracerOf(m.Fabric.Engine)
	fs := m.Fabric.Net.Faults()
	var err error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			fs.Retries++
			if tr != nil {
				id := tr.InstantOn(req.Track, obs.CatRetry, "retry")
				tr.SetAttrInt(id, "attempt", int64(attempt))
				tr.SetAttrInt(id, "bytes-left", bytes)
			}
			p.Sleep(pol.backoff(attempt))
			obs.Account(p, obs.CatRetry, pol.backoff(attempt))
			if req.Replan != nil {
				if np := req.Replan(attempt); len(np) > 0 {
					paths = np
					fs.Replans++
					if tr != nil {
						tr.InstantOn(req.Track, obs.CatRetry, "replan")
					}
				}
			}
		}
		if deadline > 0 && p.Now() >= deadline {
			err = ErrDeadline
			break
		}
		alive := m.alivePaths(paths)
		if len(alive) == 0 {
			// Every path is down; back off and hope for a restore or a
			// re-plan on the next attempt.
			err = fmt.Errorf("%w: %q", ErrPathsDown, req.Label)
			continue
		}
		flows := m.startFlows(req.Label, bytes, alive, req.Opt, req.Bytes)
		waitStart := p.Now()
		timedOut := m.awaitFlows(p, flows, deadline)
		obs.Account(p, obs.CatTransfer, p.Now()-waitStart)
		if timedOut {
			fs.TransfersFailed++
			return p.Now() - start, ErrDeadline
		}
		undelivered := 0.0
		for _, f := range flows {
			if f.Failed() {
				undelivered += f.Remaining()
			}
		}
		if undelivered == 0 {
			if attempt > 0 {
				fs.DegradedBytes += bytes
			}
			return p.Now() - start, nil
		}
		bytes = int64(math.Ceil(undelivered))
		err = fmt.Errorf("xfer: %q lost a path mid-transfer (%d bytes undelivered)", req.Label, bytes)
	}
	fs.TransfersFailed++
	return p.Now() - start, err
}

// alivePaths filters out paths crossing a failed link. The result aliases the
// manager's scratch buffer and is only valid until the next yield point.
func (m *Manager) alivePaths(paths []Path) []Path {
	alive := m.aliveScratch[:0]
	for _, pa := range paths {
		if m.Fabric.Net.PathUp(pa.Links) {
			alive = append(alive, pa)
		}
	}
	m.aliveScratch = alive[:0]
	return alive
}

// awaitFlows blocks p until every flow reaches a terminal state (done or
// failed), or until the absolute deadline (0 = none) expires — in which case
// the surviving flows are canceled and awaitFlows reports true.
func (m *Manager) awaitFlows(p *sim.Proc, flows []*netsim.Flow, deadline time.Duration) (timedOut bool) {
	if deadline <= 0 {
		for _, f := range flows {
			f.Done().Wait(p)
		}
		return false
	}
	e := m.Fabric.Engine
	agg := sim.NewSignal(e)
	remaining := len(flows)
	for _, f := range flows {
		waitFlow(e, f, func() {
			remaining--
			if remaining == 0 {
				agg.Fire()
			}
		})
	}
	// Daemon: an expiry armed past the natural end of the simulation must not
	// keep Run(0) alive.
	e.ScheduleDaemon(deadline-e.Now(), func() {
		if agg.Fired() {
			return
		}
		timedOut = true
		for _, f := range flows {
			m.Fabric.Net.Cancel(f)
		}
		agg.Fire()
	})
	agg.Wait(p)
	return timedOut
}

// TransferAsync starts the request from event context and returns a signal
// fired on completion. It does not model pinned-buffer backpressure (async
// callers manage their own staging) and does not retry on link failure; an
// invalid request panics, since event context has no error channel.
func (m *Manager) TransferAsync(req Request) *sim.Signal {
	if err := req.validate(); err != nil {
		panic(err)
	}
	done := sim.NewSignal(m.Fabric.Engine)
	setup := SetupLatency + BatchLatency
	if req.HostStack {
		setup += HostStackLatency
	}
	m.Fabric.Engine.Schedule(setup, func() {
		flows := m.startFlows(req.Label, req.Bytes, req.Paths, req.Opt, req.Bytes)
		if len(flows) == 0 {
			done.Fire()
			return
		}
		remaining := len(flows)
		for _, f := range flows {
			f := f
			m.Fabric.Engine.Schedule(0, func() {
				waitFlow(m.Fabric.Engine, f, func() {
					remaining--
					if remaining == 0 {
						done.Fire()
					}
				})
			})
		}
	})
	return done
}

// waitFlow invokes fn when f completes, using a watcher process only when
// the flow is not already done.
func waitFlow(e *sim.Engine, f *netsim.Flow, fn func()) {
	if f.Done().Fired() {
		fn()
		return
	}
	e.Go("flow-watch", func(p *sim.Proc) {
		f.Done().Wait(p)
		fn()
	})
}

// startFlows splits bytes over the given paths and launches flows. origBytes
// is the request's full payload: min-rate reservations are scaled against it
// so a retry re-sending a residue does not inflate its per-byte rate floor.
func (m *Manager) startFlows(label string, bytes int64, paths []Path, opt netsim.Options, origBytes int64) []*netsim.Flow {
	if cap(m.splitScratch) < len(paths) {
		m.splitScratch = make([]int64, len(paths))
	}
	split := splitBytesInto(m.splitScratch[:len(paths)], bytes, paths, m.ChunkBytes)
	flows := make([]*netsim.Flow, 0, len(paths))
	for i, b := range split {
		if b <= 0 {
			continue
		}
		o := opt
		if o.MinRate > 0 {
			o.MinRate = o.MinRate * float64(b) / float64(origBytes)
		}
		flows = append(flows, m.Fabric.Net.Start(label, paths[i].Links, float64(b), o))
	}
	if len(flows) == 0 {
		// Entire payload rounded into path 0.
		flows = append(flows, m.Fabric.Net.Start(label, paths[0].Links, float64(bytes), opt))
	}
	return flows
}

// SplitBytes distributes bytes over paths proportionally to capacity,
// quantized to whole chunks (§4.3.3: chunk sizes scale with path capacity).
// Transfers of at most one chunk use only the fastest path.
func SplitBytes(bytes int64, paths []Path, chunk int64) []int64 {
	return splitBytesInto(make([]int64, len(paths)), bytes, paths, chunk)
}

// splitBytesInto is SplitBytes writing into a caller-provided slice of
// len(paths), so the hot path can reuse a scratch buffer.
func splitBytesInto(out []int64, bytes int64, paths []Path, chunk int64) []int64 {
	for i := range out {
		out[i] = 0
	}
	if bytes <= 0 {
		return out
	}
	if len(paths) == 1 || bytes <= chunk {
		best := 0
		for i := 1; i < len(paths); i++ {
			if paths[i].Bps > paths[best].Bps {
				best = i
			}
		}
		out[best] = bytes
		return out
	}
	total := 0.0
	for _, p := range paths {
		total += p.Bps
	}
	if total <= 0 {
		out[0] = bytes
		return out
	}
	assigned := int64(0)
	for i, p := range paths {
		share := int64(float64(bytes) * p.Bps / total)
		if chunk > 0 {
			share -= share % chunk
		}
		// Float rounding on large payloads can push the proportional shares
		// past the total; clamp so the sum never exceeds bytes (a negative
		// remainder would starve — or go negative on — the fastest path).
		if rest := bytes - assigned; share > rest {
			share = rest
		}
		out[i] = share
		assigned += share
	}
	// Remainder (sub-chunk residue) goes to the fastest path.
	best := 0
	for i := 1; i < len(paths); i++ {
		if paths[i].Bps > paths[best].Bps {
			best = i
		}
	}
	out[best] += bytes - assigned
	return out
}
