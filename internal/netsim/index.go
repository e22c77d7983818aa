package netsim

import (
	"fmt"

	"grouter/internal/topology"
)

// linkState is one registered link in the dense link table. Scratch fields
// are epoch/stamp-guarded so recomputes never clear them between passes.
type linkState struct {
	id       topology.LinkID
	capacity float64
	// down marks a failed link: no active flow ever crosses a down link
	// (FailLink kills the crossing flows, Start fails new ones immediately),
	// so the allocator never needs to special-case it.
	down bool
	// alloc is the maintained total rate of active flows crossing the link;
	// it makes AllocatedOn/FreeOn O(1) and Utilization O(links).
	alloc float64
	// flows lists the active flows crossing the link, with each entry's
	// position mirrored in Flow.linkPos for O(1) swap-removal.
	flows []flowSlot

	visited  int64   // == Network.epoch when in the current component
	free     float64 // water-fill scratch: residual capacity
	cnt      int32   // water-fill scratch: unfrozen flows this iteration
	cntStamp int64   // == Network.stamp when cnt is current
}

// flowSlot is one link's reference to a crossing flow; slot is the index of
// this link within the flow's path, so the back-pointer in Flow.linkPos can
// be fixed when a swap-removal moves the entry.
type flowSlot struct {
	f    *Flow
	slot int32
}

// insertFlow registers f in the order slice and every path link's flow list.
func (n *Network) insertFlow(f *Flow) {
	f.active = true
	n.insertIntoOrder(f)
	for i, li := range f.pathIdx {
		l := &n.links[li]
		f.linkPos[i] = int32(len(l.flows))
		l.flows = append(l.flows, flowSlot{f: f, slot: int32(i)})
	}
}

// removeFlow unregisters f from the order slice, link flow lists, maintained
// allocation totals, and the completion heap.
func (n *Network) removeFlow(f *Flow) {
	f.active = false
	n.removeFromOrder(f)
	for i, li := range f.pathIdx {
		l := &n.links[li]
		pos := f.linkPos[i]
		last := len(l.flows) - 1
		if int(pos) != last {
			moved := l.flows[last]
			l.flows[pos] = moved
			moved.f.linkPos[moved.slot] = pos
		}
		l.flows = l.flows[:last]
		l.alloc -= f.rate
		if l.alloc < 0 {
			l.alloc = 0
		}
	}
	n.heapRemove(f)
}

// orderLess is the allocation order: priority tiers descending, FIFO within
// a tier.
func orderLess(a, b *Flow) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// insertIntoOrder places f into the maintained allocation-order slice by
// binary search (no re-sorting of the population).
func (n *Network) insertIntoOrder(f *Flow) {
	lo, hi := 0, len(n.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if orderLess(n.order[mid], f) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n.order = append(n.order, nil)
	copy(n.order[lo+1:], n.order[lo:])
	n.order[lo] = f
}

// removeFromOrder deletes f from the allocation-order slice.
func (n *Network) removeFromOrder(f *Flow) {
	lo, hi := 0, len(n.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if orderLess(n.order[mid], f) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(n.order) || n.order[lo] != f {
		panic(fmt.Sprintf("netsim: flow %q (seq %d) not at its order slot", f.label, f.seq))
	}
	copy(n.order[lo:], n.order[lo+1:])
	n.order[len(n.order)-1] = nil
	n.order = n.order[:len(n.order)-1]
}

// collectComponents expands the dirty seeds into their connected components
// over the flow-link bipartite graph. On return compFlows holds every
// reachable flow (including flows about to be retired), compLinks every
// reachable link, both stamped with the new epoch.
func (n *Network) collectComponents() {
	n.epoch++
	ep := n.epoch
	n.compFlows = n.compFlows[:0]
	n.compLinks = n.compLinks[:0]

	for _, f := range n.dirtyFlows {
		f.dirty = false
		if !f.active || f.visited == ep {
			continue
		}
		f.visited = ep
		n.compFlows = append(n.compFlows, f)
		n.expandComponent(len(n.compFlows) - 1)
	}
	for _, li := range n.dirtyLinks {
		l := &n.links[li]
		if l.visited == ep {
			continue
		}
		l.visited = ep
		n.compLinks = append(n.compLinks, li)
		head := len(n.compFlows)
		for _, s := range l.flows {
			if s.f.visited != ep {
				s.f.visited = ep
				n.compFlows = append(n.compFlows, s.f)
			}
		}
		n.expandComponent(head)
	}
	n.dirtyFlows = n.dirtyFlows[:0]
	n.dirtyLinks = n.dirtyLinks[:0]
}

// expandComponent runs the BFS from compFlows[head:] until closure,
// appending discovered flows and links stamped with the current epoch.
func (n *Network) expandComponent(head int) {
	ep := n.epoch
	for ; head < len(n.compFlows); head++ {
		f := n.compFlows[head]
		for _, li := range f.pathIdx {
			l := &n.links[li]
			if l.visited == ep {
				continue
			}
			l.visited = ep
			n.compLinks = append(n.compLinks, int(li))
			for _, s := range l.flows {
				if s.f.visited != ep {
					s.f.visited = ep
					n.compFlows = append(n.compFlows, s.f)
				}
			}
		}
	}
}

// --- completion heap: min-heap of active flows by (finishAt, seq) ---

func completionLess(a, b *Flow) bool {
	if a.finishAt != b.finishAt {
		return a.finishAt < b.finishAt
	}
	return a.seq < b.seq
}

// heapFix inserts f or restores its position after finishAt changed.
func (n *Network) heapFix(f *Flow) {
	if f.heapIdx < 0 {
		f.heapIdx = len(n.completions)
		n.completions = append(n.completions, f)
		n.heapUp(f.heapIdx)
		return
	}
	if !n.heapUp(f.heapIdx) {
		n.heapDown(f.heapIdx)
	}
}

// heapRemove deletes f from the heap if present.
func (n *Network) heapRemove(f *Flow) {
	i := f.heapIdx
	if i < 0 {
		return
	}
	last := len(n.completions) - 1
	if i != last {
		n.completions[i] = n.completions[last]
		n.completions[i].heapIdx = i
	}
	n.completions[last] = nil
	n.completions = n.completions[:last]
	f.heapIdx = -1
	if i < last {
		if !n.heapUp(i) {
			n.heapDown(i)
		}
	}
}

// heapPop removes and returns the earliest-finishing flow.
func (n *Network) heapPop() *Flow {
	f := n.completions[0]
	n.heapRemove(f)
	return f
}

func (n *Network) heapUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !completionLess(n.completions[i], n.completions[parent]) {
			break
		}
		n.heapSwap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (n *Network) heapDown(i int) {
	for {
		left := 2*i + 1
		if left >= len(n.completions) {
			return
		}
		least := left
		if right := left + 1; right < len(n.completions) && completionLess(n.completions[right], n.completions[left]) {
			least = right
		}
		if !completionLess(n.completions[least], n.completions[i]) {
			return
		}
		n.heapSwap(i, least)
		i = least
	}
}

func (n *Network) heapSwap(i, j int) {
	n.completions[i], n.completions[j] = n.completions[j], n.completions[i]
	n.completions[i].heapIdx = i
	n.completions[j].heapIdx = j
}

// checkIntegrity validates the maintained indexes against first principles:
// per-link totals match the member rates, back-pointers are consistent, and
// no link is over capacity. Test-only (called from property tests); the
// check is O(flows x pathlen).
func (n *Network) checkIntegrity() error {
	for i := range n.links {
		l := &n.links[i]
		sum := 0.0
		for pos, s := range l.flows {
			if !s.f.active {
				return fmt.Errorf("link %s lists inactive flow %q", l.id, s.f.label)
			}
			if s.f.pathIdx[s.slot] != int32(i) || s.f.linkPos[s.slot] != int32(pos) {
				return fmt.Errorf("link %s slot %d back-pointer mismatch for %q", l.id, pos, s.f.label)
			}
			sum += s.f.rate
		}
		if diff := l.alloc - sum; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("link %s alloc drift: maintained %f vs summed %f", l.id, l.alloc, sum)
		}
		if l.alloc > l.capacity*(1+1e-9)+1e-6 {
			return fmt.Errorf("link %s over capacity: %f > %f", l.id, l.alloc, l.capacity)
		}
	}
	for i, f := range n.completions {
		if f.heapIdx != i {
			return fmt.Errorf("completion heap index mismatch at %d for %q", i, f.label)
		}
	}
	for i := 1; i < len(n.order); i++ {
		if orderLess(n.order[i], n.order[i-1]) {
			return fmt.Errorf("order slice out of order at %d", i)
		}
	}
	return nil
}

// ratesSettled reports whether no recompute is pending at the current
// instant, i.e. flow rates reflect the current flow set. Test helper.
func (n *Network) ratesSettled() bool {
	if len(n.dirtyFlows) > 0 || len(n.dirtyLinks) > 0 {
		return false
	}
	return !(n.eventScheduled && n.eventAt <= n.engine.Now())
}
