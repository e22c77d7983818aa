// Package pathsel implements GROUTER's topology-aware transfer scheduling
// (§4.3.3, Algorithm 1): contention-aware selection of parallel NVLink paths
// between a source and destination GPU on one node.
//
// The selector maintains a bandwidth-usage matrix over the node's NVLink
// adjacency. Selection proceeds in the paper's two phases: first fully idle
// paths, shortest first, each reserving its bottleneck bandwidth; then, if
// the source's outgoing or destination's incoming capacity is still
// unsaturated, busy paths whose residual bandwidth can be balanced with the
// functions already using them. Direct paths take priority: a function
// holding a direct edge as an intermediate hop of an indirect route is
// rerouted when possible.
package pathsel

import (
	"time"

	"grouter/internal/topology"
)

// SelectLatency is the control-plane cost of one path selection; the paper
// reports <10µs on 4–8 GPU servers after pruning.
const SelectLatency = 8 * time.Microsecond

// DefaultMaxHops bounds path enumeration; on 8-GPU meshes two intermediate
// hops already expose all useful parallelism.
const DefaultMaxHops = 3

// Assignment is a set of reserved parallel paths for one transfer. Its owner
// keeps it across transfers: Select fills it in place, reusing its slices,
// and Release returns its bandwidth, after which it can be selected into
// again.
type Assignment struct {
	// Paths are GPU-hop sequences (e.g. [4 6 7 1]); BWs the bandwidth
	// reserved on each (its bottleneck at selection time). The hop
	// sequences are the topology's cached paths: read-only.
	Paths [][]int
	BWs   []float64

	src, dst int
	// held marks a reservation Select made and Release has not returned.
	held bool
}

// TotalBW returns the aggregate reserved bandwidth.
func (a *Assignment) TotalBW() float64 {
	t := 0.0
	for _, b := range a.BWs {
		t += b
	}
	return t
}

// Selector tracks NVLink bandwidth usage on one node and answers path
// queries.
type Selector struct {
	node *topology.Node
	spec *topology.Spec
	// used[i][j] is reserved bandwidth on the directed edge i→j.
	used [][]float64
	// active lists live assignments in selection order. The direct-path
	// reroute walks it, and the walk order decides which borrower gets an
	// idle alternative path, so a map here would make runs unrepeatable.
	active []*Assignment

	// Avail, when non-nil, reports whether the directed NVLink edge i→j is
	// currently usable. Edges reported unavailable contribute zero residual
	// and are excluded from selection, so re-planning after a link failure
	// routes around dead NVLink edges (and Select reports false — PCIe
	// fallback — when the pair is cut off entirely).
	Avail func(i, j int) bool
}

// New builds a selector for one node.
func New(node *topology.Node) *Selector {
	n := node.Spec.NumGPUs
	used := make([][]float64, n)
	for i := range used {
		used[i] = make([]float64, n)
	}
	return &Selector{node: node, spec: node.Spec, used: used}
}

// residual returns free bandwidth on directed edge i→j (0 when there is no
// such NVLink or the edge is failed). A pair without NVLink returns before
// Avail is asked.
func (s *Selector) residual(i, j int) float64 {
	bps := s.spec.NVLinkBps(i, j)
	if bps == 0 || s.Avail != nil && !s.Avail(i, j) {
		return 0
	}
	r := bps - s.used[i][j]
	if r < 0 {
		return 0
	}
	return r
}

// pathAvail reports whether every edge of the GPU-hop path is usable.
func (s *Selector) pathAvail(path []int) bool {
	if s.Avail == nil {
		return true
	}
	for i := 0; i+1 < len(path); i++ {
		if !s.Avail(path[i], path[i+1]) {
			return false
		}
	}
	return true
}

// outResidual sums free bandwidth leaving g; inResidual entering g.
func (s *Selector) outResidual(g int) float64 {
	t := 0.0
	for j := 0; j < s.spec.NumGPUs; j++ {
		t += s.residual(g, j)
	}
	return t
}

func (s *Selector) inResidual(g int) float64 {
	t := 0.0
	for i := 0; i < s.spec.NumGPUs; i++ {
		t += s.residual(i, g)
	}
	return t
}

// pathResidual returns the bottleneck residual along a GPU-hop path, and
// whether every edge is completely idle.
func (s *Selector) pathResidual(path []int) (bottleneck float64, idle bool) {
	bottleneck = -1
	idle = true
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		r := s.residual(a, b)
		if bottleneck < 0 || r < bottleneck {
			bottleneck = r
		}
		if s.used[a][b] > 0 {
			idle = false
		}
	}
	if bottleneck < 0 {
		bottleneck = 0
	}
	return bottleneck, idle
}

func (s *Selector) reserve(path []int, bw float64) {
	for i := 0; i+1 < len(path); i++ {
		s.used[path[i]][path[i+1]] += bw
	}
}

func (s *Selector) unreserve(path []int, bw float64) {
	for i := 0; i+1 < len(path); i++ {
		s.used[path[i]][path[i+1]] -= bw
		if s.used[path[i]][path[i+1]] < 1e-9 {
			s.used[path[i]][path[i+1]] = 0
		}
	}
}

// usesEdgeAsIntermediate reports whether assignment a routes through the
// directed edge (i,j) on a path where (i,j) is not the whole path (i.e. an
// indirect route borrowing the edge).
func usesEdgeAsIntermediate(a *Assignment, i, j int) bool {
	for _, p := range a.Paths {
		if len(p) <= 2 {
			continue
		}
		for k := 0; k+1 < len(p); k++ {
			if p[k] == i && p[k+1] == j {
				return true
			}
		}
	}
	return false
}

// Select reserves parallel NVLink paths from src to dst (Algorithm 1) into a
// and reports whether it did; it reports false, reserving nothing, when the
// pair has no NVLink connectivity within maxHops (callers fall back to
// PCIe). maxHops <= 0 uses DefaultMaxHops. a must not be held: Release it
// before selecting into it again.
func (s *Selector) Select(a *Assignment, src, dst, maxHops int) bool {
	if a.held {
		panic("pathsel: Select into an assignment that is still held")
	}
	a.Paths, a.BWs = a.Paths[:0], a.BWs[:0]
	a.src, a.dst = src, dst
	if src == dst {
		return false
	}
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	cands := s.node.NVLinkPaths(src, dst, maxHops)
	if len(cands) == 0 {
		return false
	}
	if s.spec.Switched {
		if !s.pathAvail(cands[0]) {
			return false
		}
		// NVSwitch: the single switch path at port bandwidth.
		a.Paths = append(a.Paths, cands[0])
		a.BWs = append(a.BWs, s.spec.SwitchPortBps)
		s.hold(a)
		return true
	}

	// Direct-path priority (§4.3.3): if the direct edge exists but is held
	// by another function's indirect route, try to reroute that function.
	if s.spec.NVLinkBps(src, dst) > 0 && s.used[src][dst] > 0 {
		for _, other := range s.active {
			if usesEdgeAsIntermediate(other, src, dst) {
				s.tryReroute(other, src, dst)
			}
		}
	}

	taken := func(path []int) bool {
		// Paths within one assignment must be edge-disjoint.
		for _, q := range a.Paths {
			for i := 0; i+1 < len(q); i++ {
				for k := 0; k+1 < len(path); k++ {
					if q[i] == path[k] && q[i+1] == path[k+1] {
						return true
					}
				}
			}
		}
		return false
	}

	// Phase 1: idle paths, shortest first. A failed edge zeroes a path's
	// residual, so dead paths are skipped rather than reserved.
	for {
		var best []int
		for _, p := range cands {
			if taken(p) {
				continue
			}
			if bw, idle := s.pathResidual(p); idle && bw > 0 {
				best = p
				break
			}
		}
		if best == nil {
			break
		}
		bw, _ := s.pathResidual(best)
		s.reserve(best, bw)
		a.Paths = append(a.Paths, best)
		a.BWs = append(a.BWs, bw)
		if s.outResidual(src) == 0 || s.inResidual(dst) == 0 {
			break
		}
	}

	// Phase 2: busy paths with bandwidth balancing — reserve the residual
	// (the simulator's fair sharing splits the link with the running
	// function, which is the balancing the paper describes).
	for s.outResidual(src) > 0 && s.inResidual(dst) > 0 {
		var best []int
		bestBW := 0.0
		for _, p := range cands {
			if taken(p) {
				continue
			}
			if bw, _ := s.pathResidual(p); bw > bestBW {
				best, bestBW = p, bw
			}
		}
		if best == nil {
			break
		}
		s.reserve(best, bestBW)
		a.Paths = append(a.Paths, best)
		a.BWs = append(a.BWs, bestBW)
	}

	if len(a.Paths) == 0 {
		// Everything saturated: share the shortest still-usable path. When
		// every candidate crosses a failed edge the pair is NVLink-cut and
		// the caller falls back to PCIe.
		for _, p := range cands {
			if s.pathAvail(p) {
				a.Paths = append(a.Paths, p)
				a.BWs = append(a.BWs, s.node.PathBandwidth(p)/2)
				break
			}
		}
		if len(a.Paths) == 0 {
			return false
		}
	}
	s.hold(a)
	return true
}

// hold records a as a live reservation.
func (s *Selector) hold(a *Assignment) {
	a.held = true
	s.active = append(s.active, a)
}

// tryReroute moves other's path through edge (i,j) to an alternative idle
// route; on failure the original reservation stands.
func (s *Selector) tryReroute(other *Assignment, i, j int) {
	for idx, p := range other.Paths {
		uses := false
		for k := 0; k+1 < len(p); k++ {
			if p[k] == i && p[k+1] == j {
				uses = true
				break
			}
		}
		if !uses || len(p) <= 2 {
			continue
		}
		bw := other.BWs[idx]
		s.unreserve(p, bw)
		var alt []int
		for _, cand := range s.node.NVLinkPaths(other.src, other.dst, DefaultMaxHops) {
			crosses := false
			for k := 0; k+1 < len(cand); k++ {
				if cand[k] == i && cand[k+1] == j {
					crosses = true
					break
				}
			}
			if crosses {
				continue
			}
			if res, idle := s.pathResidual(cand); idle && res >= bw {
				alt = cand
				break
			}
		}
		if alt == nil {
			s.reserve(p, bw) // restore
			continue
		}
		s.reserve(alt, bw)
		other.Paths[idx] = alt
	}
}

// Release returns an assignment's bandwidth to the matrix. Releasing an
// assignment that is not held (never selected, already released, or nil) is
// a no-op.
func (s *Selector) Release(a *Assignment) {
	if a == nil || !a.held {
		return
	}
	a.held = false
	for i, x := range s.active {
		if x == a {
			copy(s.active[i:], s.active[i+1:])
			s.active[len(s.active)-1] = nil
			s.active = s.active[:len(s.active)-1]
			break
		}
	}
	if s.spec.Switched {
		return
	}
	for i, p := range a.Paths {
		s.unreserve(p, a.BWs[i])
	}
}

// Links writes an assignment's per-path link IDs for the transfer engine
// into buf and returns it. Each path's list is written into buf's own inner
// array for that position, so a buffer kept between transfers makes the
// conversion allocation-free; the lists stay valid until buf's next use.
func (s *Selector) Links(buf [][]topology.LinkID, a *Assignment) [][]topology.LinkID {
	buf = buf[:0]
	for _, p := range a.Paths {
		k := len(buf)
		if k < cap(buf) {
			buf = buf[:k+1]
		} else {
			buf = append(buf, nil)
		}
		buf[k] = s.node.AppendNVLinkPathLinks(buf[k][:0], p)
	}
	return buf
}
