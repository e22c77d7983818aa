// Package netsim is a flow-level network simulator over a topology link
// graph. A Flow moves a byte count across an ordered set of directed links;
// the simulator continuously assigns each flow a rate using max-min fair
// water-filling with three extensions needed by GROUTER's transfer
// scheduling:
//
//   - min-rate reservations (SLO guarantees, granted greedily in priority
//     order before fair sharing),
//   - max-rate caps (bandwidth partitioning of background traffic), and
//   - priority tiers (idle bandwidth goes to the tightest-SLO tier first).
//
// Rates are recomputed whenever the flow set or any flow's constraints
// change; flow progress is advanced lazily between recomputations, so the
// model is exact for piecewise-constant rate schedules.
//
// The allocator is incremental and component-scoped: a flow event only
// recomputes rates inside the connected component of links and flows
// reachable from the changed flow. Flows sharing no links with the component
// keep their rates and completion schedules, which is exact for max-min
// fairness because disjoint components impose no constraints on each other
// (see alloc.go for the allocator and the retained reference oracle, and
// index.go for the dense link table backing it).
package netsim

import (
	"fmt"
	"math"
	"time"

	"grouter/internal/metrics"
	"grouter/internal/obs"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// finishEpsilon is the residual byte count below which a flow is complete
// (absorbs floating-point drift).
const finishEpsilon = 0.5

// farFuture marks a flow with no projected completion (zero rate).
const farFuture = time.Duration(math.MaxInt64)

// Network simulates a set of capacity-annotated links shared by flows.
//
// Sharded execution: a Network is single-threaded state owned by one engine.
// In a sharded replay (internal/sim's ShardGroup) every Network — and with
// it the whole incremental allocator: link graph, flow set, dirty
// components — lives on exactly one shard, because a pod's fabric is its
// own connected component and never shares links with another shard's.
// NetStats and Faults are therefore shard-local counts by construction.
type Network struct {
	engine *sim.Engine
	stats  metrics.AllocatorStats
	faults metrics.FaultStats

	// shard tags this network's flow spans with the engine shard hosting it
	// in sharded runs (-1 = unsharded, no tag emitted).
	shard int32

	// links is the dense link table, indexed by link handle (see index.go);
	// name formats a handle for messages and Utilization.
	links []linkState
	name  func(topology.LinkID) string

	// order holds the active flows sorted by (priority desc, seq asc) — the
	// allocation order — and is maintained incrementally so recomputes never
	// re-sort the population.
	order []*Flow
	seq   int64

	// Single outstanding allocator event: the debounce for mutation bursts
	// and the next projected completion share one engine timer. Superseded
	// timers still in the engine heap detect staleness by comparing their
	// fire instant against eventAt (see fireTimer). timerFn is the one timer
	// callback, allocated once — scheduling an event captures nothing.
	eventScheduled bool
	eventAt        time.Duration
	timerFn        func()

	// Seeds for the next recompute: flows that arrived, and links whose flow
	// set shrank (failures) or whose capacity changed.
	dirtyFlows []*Flow
	dirtyLinks []int

	// completions is a min-heap of active flows by projected finish time.
	completions []*Flow

	// free holds released flows for Start to reuse (see Release).
	free []*Flow

	// epoch stamps component membership per recompute; stamp marks per-link
	// counts per water-fill iteration. Both only ever increase, so scratch
	// state needs no clearing between recomputes.
	epoch int64
	stamp int64

	// Reusable scratch for recomputes (steady-state allocation-free).
	compFlows  []*Flow // BFS queue and collected component members
	compLinks  []int
	compSorted []*Flow
	finished   []*Flow
	wfLinks    []int
}

// Flow is one in-flight transfer over a fixed link path.
type Flow struct {
	label    string
	pathIdx  []int32 // dense link indices of the path
	linkPos  []int32 // position of this flow in each link's flow list
	slab     []int32 // backing store of pathIdx and linkPos, kept on reuse
	seq      int64
	minRate  float64
	maxRate  float64 // 0 = unlimited
	priority int

	rate       float64
	total      float64
	remaining  float64
	lastUpdate time.Duration
	done       sim.Signal
	failed     bool
	active     bool
	net        *Network

	// Allocator bookkeeping.
	visited  int64 // == net.epoch when inside the current component
	frozen   bool  // water-fill scratch
	dirty    bool  // queued in net.dirtyFlows
	finishAt time.Duration
	heapIdx  int // position in net.completions, -1 when absent

	// Tracing (zero when the engine has no tracer attached).
	span     obs.SpanID
	prevRate float64 // rate before the current recompute, for re-rate instants
}

// Options constrain a flow's rate allocation.
type Options struct {
	// MinRate is a reserved rate in bytes/s (best-effort guaranteed before
	// fair sharing).
	MinRate float64
	// MaxRate caps the flow's rate in bytes/s; 0 means unlimited.
	MaxRate float64
	// Priority orders tiers for idle-bandwidth distribution; higher tiers
	// fill first.
	Priority int
}

// New builds a network over every link of c. The link table is indexed by
// link handle, so a path's handles address it directly, and it is built
// once, at its exact size.
func New(e *sim.Engine, c *topology.Cluster) *Network {
	return newNetwork(e, c.NumLinks(), c.LinkBps, c.LinkName)
}

// newNetwork builds a network over links handles 0..links-1, each at the
// capacity bps gives it. It panics on a non-positive capacity.
func newNetwork(e *sim.Engine, links int, bps func(topology.LinkID) float64, name func(topology.LinkID) string) *Network {
	n := &Network{engine: e, shard: -1, links: make([]linkState, links), name: name}
	n.timerFn = n.fireTimer
	for i := range n.links {
		id := topology.LinkID(i)
		if n.links[i].capacity = bps(id); n.links[i].capacity <= 0 {
			panic(fmt.Sprintf("netsim: link %s has non-positive capacity", name(id)))
		}
	}
	return n
}

// SetShard tags the network with the engine shard hosting it; subsequent
// flow spans carry a "shard" attribute. Sharded replays call it at pod
// construction; unsharded simulations leave the network untagged.
func (n *Network) SetShard(shard int32) { n.shard = shard }

// Capacity returns a link's capacity in bytes/s.
func (n *Network) Capacity(id topology.LinkID) float64 { return n.links[id].capacity }

// PathBps returns the bottleneck capacity over a link path, or 0 if the path
// is empty.
func (n *Network) PathBps(links []topology.LinkID) float64 {
	min := 0.0
	for i, id := range links {
		if c := n.links[id].capacity; i == 0 || c < min {
			min = c
		}
	}
	return min
}

// NetStats returns this network's allocator counters.
func (n *Network) NetStats() *metrics.AllocatorStats { return &n.stats }

// Faults returns the fault-injection and recovery counters of the
// simulation this network belongs to.
func (n *Network) Faults() *metrics.FaultStats { return &n.faults }

// Start launches a flow of the given byte size over path. A zero-byte flow
// completes at the current instant. Start panics on a handle outside the
// network, which indicates a path-construction bug.
func (n *Network) Start(label string, path []topology.LinkID, bytes float64, opt Options) *Flow {
	for _, id := range path {
		if uint(id) >= uint(len(n.links)) {
			panic(fmt.Sprintf("netsim: flow %q uses unknown link %d", label, id))
		}
	}
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: flow %q has negative size", label))
	}
	n.seq++
	f := n.newFlow()
	*f = Flow{
		label:      label,
		slab:       f.slab,
		seq:        n.seq,
		minRate:    opt.MinRate,
		maxRate:    opt.MaxRate,
		priority:   opt.Priority,
		total:      bytes,
		remaining:  bytes,
		lastUpdate: n.engine.Now(),
		done:       f.done,
		net:        n,
		finishAt:   farFuture,
		heapIdx:    -1,
	}
	if bytes <= finishEpsilon || len(path) == 0 {
		f.remaining = 0
		n.engine.Schedule(0, f.done.Fire)
		return f
	}
	for _, id := range path {
		if n.links[id].down {
			// The path crosses a failed link: the flow fails at the current
			// instant without moving a byte. Callers observe Failed() after
			// the done signal and retry or re-plan.
			f.failed = true
			n.faults.FlowsKilled++
			if tr := obs.TracerOf(n.engine); tr != nil {
				id := tr.InstantOn(obs.FlowTrack(f.seq), obs.CatFlow, label)
				tr.SetAttrStr(id, "outcome", "dead-path")
			}
			n.engine.Schedule(0, f.done.Fire)
			return f
		}
	}
	if cap(f.slab) < 2*len(path) {
		f.slab = make([]int32, 2*len(path))
	}
	slab := f.slab[:2*len(path)]
	f.pathIdx = slab[:len(path):len(path)]
	f.linkPos = slab[len(path):]
	for i, id := range path {
		f.pathIdx[i] = int32(id)
	}
	n.insertFlow(f)
	n.markDirty(f)
	if tr := obs.TracerOf(n.engine); tr != nil {
		f.span = tr.BeginOn(obs.FlowTrack(f.seq), obs.CatFlow, label)
		tr.SetAttrInt(f.span, "bytes", int64(bytes))
		if n.shard >= 0 {
			tr.SetAttrInt(f.span, "shard", int64(n.shard))
		}
	}
	n.requestEvent(n.engine.Now())
	return f
}

// newFlow returns a released flow to reuse, or a new one. Its done signal
// is unfired and bound to this network's engine.
func (n *Network) newFlow() *Flow {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	return &Flow{}
}

// Release hands a finished flow back to the network, so a later Start
// reuses it together with its path storage and its done signal. The caller
// must hold no other reference to f: after Release, f belongs to whichever
// flow Start hands it out as next.
//
// Release refuses, and reports false, when the flow is still attached to
// the simulation: active, queued as a recompute seed, in the completion
// heap, or with a done signal that has not fired. A flow that is dead on
// arrival is not recycled until its done event has run.
func (n *Network) Release(f *Flow) bool {
	if f.net != n || f.active || f.dirty || f.heapIdx >= 0 || !f.done.Fired() {
		return false
	}
	f.done.Reset()
	n.free = append(n.free, f)
	return true
}

// Done returns the flow's terminal signal; it fires on completion AND on
// failure (check Failed after waiting).
func (f *Flow) Done() *sim.Signal { return &f.done }

// Label returns the flow's label.
func (f *Flow) Label() string { return f.label }

// Rate returns the flow's current allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Failed reports whether the flow was terminated by a link failure before
// delivering all its bytes.
func (f *Flow) Failed() bool { return f.failed }

// Remaining returns the bytes left to transfer as of the current instant.
// For a failed flow this is the undelivered byte count frozen at the failure
// instant (the amount a retry must re-send); for a completed flow it is 0.
func (f *Flow) Remaining() float64 {
	if f.failed {
		return f.remaining
	}
	if f.done.Fired() {
		return 0
	}
	elapsed := (f.net.engine.Now() - f.lastUpdate).Seconds()
	rem := f.remaining - f.rate*elapsed
	if rem < 0 {
		return 0
	}
	return rem
}

// Transferred returns the bytes delivered so far. A failure freezes progress
// at the failing instant, so for every flow Transferred + undelivered bytes
// == the size it was started with.
func (f *Flow) Transferred() float64 {
	if f.active {
		return f.total - f.Remaining()
	}
	if f.done.Fired() && !f.failed {
		return f.total
	}
	return f.total - f.remaining
}

// advance moves the flow's lazily-tracked progress to now at its current
// rate.
func (f *Flow) advance(now time.Duration) {
	elapsed := (now - f.lastUpdate).Seconds()
	if elapsed > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// --- fault operations (driven by internal/faults) ---

// LinkUp reports whether a link is not failed.
func (n *Network) LinkUp(id topology.LinkID) bool { return !n.links[id].down }

// PathUp reports whether the path is non-empty and every link of it is up.
func (n *Network) PathUp(links []topology.LinkID) bool {
	if len(links) == 0 {
		return false
	}
	for _, id := range links {
		if n.links[id].down {
			return false
		}
	}
	return true
}

// SetLinkBps changes a link's capacity at the current instant (degradation or
// recovery). Crossing flows keep their lazily-advanced progress and are
// re-rated by the recompute this schedules. Panics on a non-positive
// capacity, like New.
func (n *Network) SetLinkBps(id topology.LinkID, bps float64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netsim: link %s capacity %f (use FailLink for outages)", n.name(id), bps))
	}
	l := &n.links[id]
	if l.capacity == bps {
		return
	}
	l.capacity = bps
	n.dirtyLinks = append(n.dirtyLinks, int(id))
	n.requestEvent(n.engine.Now())
}

// FailLink takes a link down. Every flow crossing it is terminated at the
// current instant with its progress frozen (Failed() true, Done() fired);
// new flows whose path crosses the link fail immediately until RestoreLink.
// Failing an already-down link is a no-op.
func (n *Network) FailLink(id topology.LinkID) {
	l := &n.links[id]
	if l.down {
		return
	}
	l.down = true
	now := n.engine.Now()
	// Snapshot and order the victims by seq so the done signals fire in a
	// deterministic order regardless of link-list layout.
	victims := make([]*Flow, 0, len(l.flows))
	for _, s := range l.flows {
		victims = append(victims, s.f)
	}
	sortFlowsBySeq(victims)
	for _, f := range victims {
		n.failFlow(f, now)
	}
	n.dirtyLinks = append(n.dirtyLinks, int(id))
	n.requestEvent(now)
}

// RestoreLink brings a failed link back at its current capacity. Flows killed
// by the outage stay failed; only new Starts see the restored link.
func (n *Network) RestoreLink(id topology.LinkID) { n.links[id].down = false }

// failFlow terminates one flow at a link failure: progress is advanced to the
// failure instant and frozen, peers sharing any of its links are queued for
// recompute, and the done signal fires. A flow that had already delivered all
// its bytes at the failure instant completes normally instead.
func (n *Network) failFlow(f *Flow, now time.Duration) {
	if !f.active {
		return
	}
	f.advance(now)
	n.removeFlow(f)
	f.rate = 0
	for _, li := range f.pathIdx {
		n.dirtyLinks = append(n.dirtyLinks, int(li))
	}
	if f.remaining <= finishEpsilon {
		f.remaining = 0
		n.endFlowSpan(f, "completed")
	} else {
		f.failed = true
		n.faults.FlowsKilled++
		n.endFlowSpan(f, "failed")
	}
	f.done.Fire()
}

// endFlowSpan closes a flow's trace span with its delivered byte count and
// terminal outcome. No-op when tracing is disabled or the flow never opened
// a span.
func (n *Network) endFlowSpan(f *Flow, outcome string) {
	if f.span == 0 {
		return
	}
	if tr := obs.TracerOf(n.engine); tr != nil {
		tr.SetAttrInt(f.span, "transferred", int64(f.total-f.remaining))
		tr.SetAttrStr(f.span, "outcome", outcome)
		tr.End(f.span)
	}
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.order) }

// AllocatedOn returns the total rate currently allocated on a link, from
// maintained per-link totals (O(1)).
func (n *Network) AllocatedOn(id topology.LinkID) float64 { return n.links[id].alloc }

// Utilization snapshots every link's allocated fraction (0..1), keyed by
// link name. Useful for debugging contention in experiments.
func (n *Network) Utilization() map[string]float64 {
	out := make(map[string]float64, len(n.links))
	for i := range n.links {
		l := &n.links[i]
		out[n.name(topology.LinkID(i))] = l.alloc / l.capacity
	}
	return out
}

// FreeOn returns a link's unallocated capacity (O(1)).
func (n *Network) FreeOn(id topology.LinkID) float64 {
	free := n.links[id].capacity - n.links[id].alloc
	if free < 0 {
		return 0
	}
	return free
}

// markDirty queues f as a seed for the next recompute.
func (n *Network) markDirty(f *Flow) {
	if f.dirty {
		return
	}
	f.dirty = true
	n.dirtyFlows = append(n.dirtyFlows, f)
}

// requestEvent ensures the allocator's single engine timer fires no later
// than at. Mutation bursts and completion timers coalesce here: a burst of N
// Start calls at one instant schedules one event, and a completion timer
// already due at or before the requested time is reused as-is. Superseded
// timers are invalidated by generation and fire as no-ops.
func (n *Network) requestEvent(at time.Duration) {
	if n.eventScheduled && n.eventAt <= at {
		return
	}
	n.eventScheduled = true
	n.eventAt = at
	n.stats.EventsScheduled.Add(1)
	n.engine.Schedule(at-n.engine.Now(), n.timerFn)
}

// fireTimer is the allocator's timer callback. A timer is current only if an
// event is still pending for exactly this instant; a superseded timer (one
// re-armed for an earlier fire already handled its instant, or the pending
// event moved) is a no-op. When a stale timer and its replacement share an
// instant, the first to fire runs the recompute and clears eventScheduled, so
// the recompute still happens exactly once.
func (n *Network) fireTimer() {
	if !n.eventScheduled || n.eventAt != n.engine.Now() {
		return
	}
	n.eventScheduled = false
	n.recompute()
}

// recompute is the allocator event body: it gathers the recompute seeds (due
// completions, dirty flows, links with departed flows), expands them to
// connected components, advances and retires those components' flows,
// reallocates their rates, and re-arms the completion timer.
func (n *Network) recompute() {
	now := n.engine.Now()

	// Flows whose projected completion has arrived seed a recompute of
	// their components; they are retired after advancing confirms it.
	for len(n.completions) > 0 && n.completions[0].finishAt <= now {
		n.markDirty(n.heapPop())
	}

	if len(n.dirtyFlows) > 0 || len(n.dirtyLinks) > 0 {
		n.recomputeComponents(now)
	}

	if len(n.completions) > 0 && n.completions[0].finishAt != farFuture {
		n.requestEvent(n.completions[0].finishAt)
	}
}

// recomputeComponents performs one component-scoped recompute pass.
func (n *Network) recomputeComponents(now time.Duration) {
	n.collectComponents()

	// Advance component flows to the current instant and find the finished.
	n.finished = n.finished[:0]
	for _, f := range n.compFlows {
		f.advance(now)
		if f.remaining <= finishEpsilon {
			n.finished = append(n.finished, f)
		}
	}
	// Retire in seq order for deterministic completion signalling.
	sortFlowsBySeq(n.finished)
	for _, f := range n.finished {
		f.remaining = 0
		n.removeFlow(f)
		f.rate = 0
		n.endFlowSpan(f, "completed")
		f.done.Fire()
	}

	// Collect the surviving component members in allocation order by
	// filtering the maintained order slice — no sorting.
	ep := n.epoch
	n.compSorted = n.compSorted[:0]
	for _, f := range n.order {
		if f.visited == ep {
			n.compSorted = append(n.compSorted, f)
		}
	}

	n.stats.ObserveRecompute(len(n.compSorted))

	tr := obs.TracerOf(n.engine)
	if tr != nil {
		for _, f := range n.compSorted {
			f.prevRate = f.rate
		}
	}

	n.allocateComponent()

	if tr != nil {
		// Sampled rates: one instant per flow whose allocation changed.
		for _, f := range n.compSorted {
			if f.rate != f.prevRate {
				id := tr.InstantOn(obs.FlowTrack(f.seq), obs.CatFlow, "rerate")
				tr.SetAttrInt(id, "bps", int64(f.rate))
			}
		}
		tr.Counter("flows-active", float64(len(n.order)))
	}

	// Refresh completion projections for every touched flow.
	for _, f := range n.compSorted {
		n.updateCompletion(f, now)
	}
}

// updateCompletion recomputes f's projected finish time and fixes the heap.
func (n *Network) updateCompletion(f *Flow, now time.Duration) {
	if f.rate <= 0 {
		f.finishAt = farFuture
		n.heapFix(f)
		return
	}
	sec := f.remaining / f.rate
	// Round the completion up to the next nanosecond: rounding down can
	// schedule the event at the current instant with zero progress, looping
	// forever.
	if sec >= (farFuture - now).Seconds() {
		f.finishAt = farFuture
		n.heapFix(f)
		return
	}
	d := time.Duration(math.Ceil(sec * float64(time.Second)))
	if d <= 0 {
		d = 1
	}
	f.finishAt = now + d
	n.heapFix(f)
}

func sortFlowsBySeq(flows []*Flow) {
	// Insertion sort: the finished set per recompute is almost always 0 or 1
	// flows, and this avoids the sort.Slice closure allocation.
	for i := 1; i < len(flows); i++ {
		f := flows[i]
		j := i - 1
		for j >= 0 && flows[j].seq > f.seq {
			flows[j+1] = flows[j]
			j--
		}
		flows[j+1] = f
	}
}
