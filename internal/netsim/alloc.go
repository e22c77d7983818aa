package netsim

import (
	"math"
	"sort"
)

// waterFillEps is the rate resolution in bytes/s: below one byte per second,
// further progressive filling is floating-point noise.
const waterFillEps = 1.0

// allocateComponent reassigns rates for the flows collected by the current
// recompute pass (n.compSorted, in allocation order) over the component's
// links (n.compLinks). It is the incremental counterpart of
// allocateReference: because every flow crossing a component link is inside
// the component, the component's links can be refilled from full capacity and
// the result is exactly what a global recompute would produce — flows outside
// the component see none of these links and keep their rates.
//
// The steady path allocates nothing: link scratch (free, cnt) lives in the
// dense link table, per-flow scratch (frozen) on the Flow, and the only
// growable buffer (wfLinks) is reused across recomputes.
func (n *Network) allocateComponent() {
	flows := n.compSorted
	for _, li := range n.compLinks {
		l := &n.links[li]
		l.free = l.capacity
		l.alloc = 0
	}
	for _, f := range flows {
		f.rate = 0
	}

	// Phase 1: min-rate reservations, granted greedily in allocation order.
	for _, f := range flows {
		want := f.minRate
		if f.maxRate > 0 && want > f.maxRate {
			want = f.maxRate
		}
		if want <= 0 {
			continue
		}
		grant := want
		for _, li := range f.pathIdx {
			if free := n.links[li].free; free < grant {
				grant = free
			}
		}
		if grant <= 0 {
			continue
		}
		f.rate = grant
		for _, li := range f.pathIdx {
			n.links[li].free -= grant
		}
	}

	// Phase 2: per-tier water-filling of the residual, highest priority
	// first. flows is ordered (priority desc, seq asc), so tiers are
	// contiguous runs.
	for lo := 0; lo < len(flows); {
		hi := lo
		for hi < len(flows) && flows[hi].priority == flows[lo].priority {
			hi++
		}
		n.waterFill(flows[lo:hi])
		lo = hi
	}

	// Rebuild the maintained per-link totals from the final rates.
	for _, f := range flows {
		for _, li := range f.pathIdx {
			n.links[li].alloc += f.rate
		}
	}
}

// waterFill distributes residual link capacity among one priority tier by
// progressive filling: repeatedly raise all unfrozen flows by the largest
// uniform increment any link or cap allows, freezing flows that hit their
// cap or a saturated link. Link scratch counters are stamped rather than
// cleared, so iterations allocate nothing.
func (n *Network) waterFill(tier []*Flow) {
	active := 0
	for _, f := range tier {
		f.frozen = f.maxRate > 0 && f.rate >= f.maxRate
		if !f.frozen {
			active++
		}
	}
	iters := int64(0)
	for active > 0 {
		iters++
		// Freeze flows that can make no further progress: at their cap, or
		// crossing a saturated link.
		for _, f := range tier {
			if f.frozen {
				continue
			}
			if f.maxRate > 0 && f.rate >= f.maxRate-waterFillEps {
				f.frozen = true
				active--
				continue
			}
			for _, li := range f.pathIdx {
				if n.links[li].free <= waterFillEps {
					f.frozen = true
					active--
					break
				}
			}
		}
		if active == 0 {
			break
		}
		// Count unfrozen flows per link. The stamp distinguishes this
		// iteration's counts from stale ones without clearing.
		n.stamp++
		st := n.stamp
		n.wfLinks = n.wfLinks[:0]
		for _, f := range tier {
			if f.frozen {
				continue
			}
			for _, li := range f.pathIdx {
				l := &n.links[li]
				if l.cntStamp != st {
					l.cntStamp = st
					l.cnt = 0
					n.wfLinks = append(n.wfLinks, int(li))
				}
				l.cnt++
			}
		}
		// delta = largest uniform rate increment all constraints allow.
		delta := math.Inf(1)
		for _, li := range n.wfLinks {
			l := &n.links[li]
			if d := l.free / float64(l.cnt); d < delta {
				delta = d
			}
		}
		for _, f := range tier {
			if f.frozen || f.maxRate <= 0 {
				continue
			}
			if d := f.maxRate - f.rate; d < delta {
				delta = d
			}
		}
		// Apply even a sub-eps delta: it saturates the binding constraint
		// (the argmin link drops to ~0 free, a binding cap is reached), so
		// the next freeze pass retires at least one flow and the loop
		// terminates. Stopping the whole tier on a tiny delta instead would
		// starve flows whose own links still have capacity (they share no
		// link with the binding one and deserve their fill).
		if math.IsInf(delta, 1) || delta <= 0 {
			break
		}
		for _, f := range tier {
			if f.frozen {
				continue
			}
			f.rate += delta
			for _, li := range f.pathIdx {
				n.links[li].free -= delta
			}
		}
	}
	n.stats.WaterFillIters.Add(iters)
}

// allocateReference recomputes every active flow's rate from scratch using
// the pre-incremental global allocator (fresh maps, full sort, all flows,
// all links) and returns the result without touching simulator state. It is
// retained as a differential oracle: property tests assert the incremental
// component-scoped allocator produces identical rates. Keep its semantics
// frozen — it is the specification the fast path is tested against.
func (n *Network) allocateReference() map[*Flow]float64 {
	free := make(map[int]float64, len(n.links))
	for i := range n.links {
		free[i] = n.links[i].capacity
	}
	flows := make([]*Flow, len(n.order))
	copy(flows, n.order)
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].priority != flows[j].priority {
			return flows[i].priority > flows[j].priority
		}
		return flows[i].seq < flows[j].seq
	})
	rate := make(map[*Flow]float64, len(flows))
	for _, f := range flows {
		rate[f] = 0
	}

	// Phase 1: reservations.
	for _, f := range flows {
		want := f.minRate
		if f.maxRate > 0 && want > f.maxRate {
			want = f.maxRate
		}
		if want <= 0 {
			continue
		}
		grant := want
		for _, li := range f.pathIdx {
			if free[int(li)] < grant {
				grant = free[int(li)]
			}
		}
		if grant <= 0 {
			continue
		}
		rate[f] = grant
		for _, li := range f.pathIdx {
			free[int(li)] -= grant
		}
	}

	// Phase 2: per-tier water-filling, highest priority first.
	for lo := 0; lo < len(flows); {
		hi := lo
		for hi < len(flows) && flows[hi].priority == flows[lo].priority {
			hi++
		}
		referenceWaterFill(flows[lo:hi], free, rate)
		lo = hi
	}
	return rate
}

// referenceWaterFill is the oracle's tier water-fill, a transliteration of
// the original map-based implementation.
func referenceWaterFill(tier []*Flow, free map[int]float64, rate map[*Flow]float64) {
	frozen := make(map[*Flow]bool, len(tier))
	active := 0
	for _, f := range tier {
		if f.maxRate > 0 && rate[f] >= f.maxRate {
			frozen[f] = true
		} else {
			active++
		}
	}
	for active > 0 {
		for _, f := range tier {
			if frozen[f] {
				continue
			}
			if f.maxRate > 0 && rate[f] >= f.maxRate-waterFillEps {
				frozen[f] = true
				active--
				continue
			}
			for _, li := range f.pathIdx {
				if free[int(li)] <= waterFillEps {
					frozen[f] = true
					active--
					break
				}
			}
		}
		if active == 0 {
			return
		}
		linkCount := map[int]int{}
		for _, f := range tier {
			if frozen[f] {
				continue
			}
			for _, li := range f.pathIdx {
				linkCount[int(li)]++
			}
		}
		delta := math.Inf(1)
		for li, cnt := range linkCount {
			if d := free[li] / float64(cnt); d < delta {
				delta = d
			}
		}
		for _, f := range tier {
			if frozen[f] {
				continue
			}
			if f.maxRate > 0 {
				if d := f.maxRate - rate[f]; d < delta {
					delta = d
				}
			}
		}
		// Mirror waterFill: apply sub-eps deltas so only the binding link's
		// flows freeze; a tier-wide stop would starve flows in unrelated
		// components of the tier (the incremental allocator fills those
		// components independently, and this oracle must agree with it).
		if math.IsInf(delta, 1) || delta <= 0 {
			return
		}
		for _, f := range tier {
			if frozen[f] {
				continue
			}
			rate[f] += delta
			for _, li := range f.pathIdx {
				free[int(li)] -= delta
			}
		}
	}
}
