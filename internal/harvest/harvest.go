// Package harvest implements GROUTER's fine-grained bandwidth harvesting
// (§4.3.1–4.3.2): building parallel link paths that borrow idle PCIe links
// and NICs from peer GPUs, and mapping function SLOs to transfer rate
// constraints.
//
// Two harvesting modes capture the paper's comparison: ModeTopoAware is
// GROUTER (route GPUs must be NVLink neighbors, GPUs sharing a PCIe switch
// are excluded, one route per switch); ModeNaive is DeepPlan-style
// harvesting that ignores topology, so a route GPU without NVLink drags the
// data across the source's own PCIe link twice.
package harvest

import (
	"time"

	"grouter/internal/netsim"
	"grouter/internal/topology"
)

// Mode selects the harvesting strategy.
type Mode int

const (
	// ModeOff uses only the local GPU's own link (NVSHMEM+/INFless+).
	ModeOff Mode = iota
	// ModeNaive harvests peer links without topology awareness (DeepPlan+).
	ModeNaive
	// ModeTopoAware harvests with NVLink-connectivity and PCIe-switch
	// exclusion rules (GROUTER).
	ModeTopoAware
)

// busyFraction is the utilization above which a candidate route link is
// considered occupied and skipped (idle-link harvesting only).
const busyFraction = 0.8

// switchSet is a small-integer set over PCIe switch / NIC / GPU indices
// (all bounded by the per-node GPU count), replacing per-call map
// allocations on the path-building hot path.
type switchSet uint64

func (s *switchSet) add(i int)     { *s |= 1 << uint(i) }
func (s switchSet) has(i int) bool { return s&(1<<uint(i)) != 0 }

// joinLinks concatenates link paths into one exactly-sized slice.
func joinLinks(segs ...[]topology.LinkID) []topology.LinkID {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	out := make([]topology.LinkID, 0, n)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// idleIn reports whether a link has meaningful spare capacity.
func idleIn(net *netsim.Network, id topology.LinkID) bool {
	if net == nil {
		return true
	}
	c := net.Capacity(id)
	if c <= 0 {
		return false
	}
	return net.AllocatedOn(id) < busyFraction*c
}

// Routes shares the joined candidate routes of one cluster. A candidate
// route is a donor GPU's hop, plus its PCIe or NIC route, plus the landing
// hop. It depends on the topology alone — the endpoints, the donor and the
// landing GPU — so each one is built on first use and every later call
// returns the same read-only slice. Which candidates a call chooses still
// depends on load: the idle filter runs on every call.
//
// A Routes belongs to one simulation and is not safe for concurrent use.
type Routes struct {
	cluster *topology.Cluster
	gpus    int

	// up[(node*G+g)*G+r] is g → donor r → host; down the host → r → g
	// mirror. Both tables are allocated on first use.
	up, down [][]topology.LinkID
	// cross[((src*N+dst)*G+sg)*G+dg] holds the GDR routes of one GPU pair,
	// allocated when the pair first transfers.
	cross []*crossRoutes
}

// crossRoutes are the cross-node routes of one (source, destination) GPU
// pair: the source GPU's own NIC path and every donor/landing route.
type crossRoutes struct {
	own []topology.LinkID
	via [][]topology.LinkID // [r*G+landing]
}

// NewRoutes returns an empty route table over c; routes fill in lazily.
func NewRoutes(c *topology.Cluster) *Routes {
	return &Routes{cluster: c, gpus: c.Spec.NumGPUs}
}

// GPUToHostPaths returns parallel paths for staging data from GPU g of node
// n to host memory, written into buf[:0]. The first path is always g's own
// PCIe route; harvested routes follow. net (optional) filters busy route
// links. The path slices are shared and must not be modified.
func (rt *Routes) GPUToHostPaths(buf [][]topology.LinkID, n, g int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	node := rt.cluster.Node(n)
	paths := append(buf[:0], node.GPUToHostLinks(g))
	if mode == ModeOff {
		return paths
	}
	spec := node.Spec
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for r := 0; r < spec.NumGPUs; r++ {
		if r == g {
			continue
		}
		if mode == ModeTopoAware {
			if spec.NVLinkBps(g, r) <= 0 {
				continue // no NVLink: borrowing would double-cross g's PCIe
			}
			if usedSwitch.has(spec.PCIeGroup[r]) {
				continue // switch already contributes one uplink
			}
			if !idleIn(net, node.PCIeSwitchUp(spec.PCIeGroup[r])) || !idleIn(net, node.PCIeGPUUp(r)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[r])
		}
		// ModeNaive (DeepPlan-style) takes any peer, reached over NVLink
		// when present and over PCIe peer-to-peer when not (congesting g's
		// own link).
		paths = append(paths, rt.viaUp(node, g, r))
	}
	return paths
}

// HostToGPUPaths mirrors GPUToHostPaths for host→GPU staging.
func (rt *Routes) HostToGPUPaths(buf [][]topology.LinkID, n, g int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	node := rt.cluster.Node(n)
	paths := append(buf[:0], node.HostToGPULinks(g))
	if mode == ModeOff {
		return paths
	}
	spec := node.Spec
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for r := 0; r < spec.NumGPUs; r++ {
		if r == g {
			continue
		}
		if mode == ModeTopoAware {
			if spec.NVLinkBps(r, g) <= 0 || usedSwitch.has(spec.PCIeGroup[r]) {
				continue
			}
			if !idleIn(net, node.PCIeSwitchDown(spec.PCIeGroup[r])) || !idleIn(net, node.PCIeGPUDown(r)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[r])
		}
		paths = append(paths, rt.viaDown(node, g, r))
	}
	return paths
}

// CrossNodePaths returns GPUDirect-RDMA paths from (node src, sg) to (node
// dst, dg), written into buf[:0]. With ModeOff a single path through the
// source GPU's nearest NIC is returned; harvesting modes add routes through
// peer GPUs' NICs, landing on the same-indexed remote GPU to minimize NUMA
// hops and finishing over NVLink (Fig. 9a). The path slices are shared and
// must not be modified.
func (rt *Routes) CrossNodePaths(buf [][]topology.LinkID, src, sg, dst, dg int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	cr := rt.crossPair(src, sg, dst, dg)
	paths := append(buf[:0], cr.own)
	if mode == ModeOff {
		return paths
	}
	sn, dn := rt.cluster.Node(src), rt.cluster.Node(dst)
	spec, dspec := sn.Spec, dn.Spec
	var usedNIC switchSet
	usedNIC.add(spec.GPUNIC[sg])
	// Landing GPUs receive a chunk stream through their own PCIe x16 and
	// forward it to dg over NVLink, so each landing must be distinct or the
	// aggregation collapses onto one link (Fig. 9a aggregates "on the
	// destination GPU via NVLink" from distinct peers).
	var usedLanding switchSet
	usedLanding.add(dg)
	for r := 0; r < spec.NumGPUs; r++ {
		if r == sg {
			continue
		}
		nic := spec.GPUNIC[r]
		if usedNIC.has(nic) {
			continue
		}
		if mode == ModeTopoAware {
			if spec.NVLinkBps(sg, r) <= 0 || !idleIn(net, sn.NICTx(nic)) {
				continue
			}
		}
		// Pick the landing GPU: prefer the same index (NUMA-aligned with
		// the NIC) when it has NVLink to dg, otherwise the lowest unused
		// NVLink neighbor of dg.
		landing := -1
		if r < dspec.NumGPUs && !usedLanding.has(r) &&
			(r == dg || dspec.NVLinkBps(r, dg) > 0) {
			landing = r
		} else if mode == ModeTopoAware {
			for cand := 0; cand < dspec.NumGPUs; cand++ {
				if dspec.NVLinkBps(dg, cand) > 0 && !usedLanding.has(cand) {
					landing = cand
					break
				}
			}
		} else if r < dspec.NumGPUs {
			landing = r // naive mode lands same-index regardless
		}
		if landing < 0 {
			continue
		}
		usedNIC.add(nic)
		usedLanding.add(landing)
		paths = append(paths, rt.viaCross(cr, sn, sg, dn, dg, r, landing))
	}
	return paths
}

// viaUp returns the memoized route g → donor r → host on node.
func (rt *Routes) viaUp(node *topology.Node, g, r int) []topology.LinkID {
	if rt.up == nil {
		rt.up = make([][]topology.LinkID, len(rt.cluster.Nodes)*rt.gpus*rt.gpus)
	}
	slot := &rt.up[(node.ID*rt.gpus+g)*rt.gpus+r]
	if *slot == nil {
		hop := node.PCIeP2PLinks(g, r)
		if node.Spec.NVLinkBps(g, r) > 0 {
			hop = node.NVLinkPairLinks(g, r)
		}
		*slot = joinLinks(hop, node.GPUToHostLinks(r))
	}
	return *slot
}

// viaDown returns the memoized route host → donor r → g on node.
func (rt *Routes) viaDown(node *topology.Node, g, r int) []topology.LinkID {
	if rt.down == nil {
		rt.down = make([][]topology.LinkID, len(rt.cluster.Nodes)*rt.gpus*rt.gpus)
	}
	slot := &rt.down[(node.ID*rt.gpus+g)*rt.gpus+r]
	if *slot == nil {
		hop := node.PCIeP2PLinks(r, g)
		if node.Spec.NVLinkBps(r, g) > 0 {
			hop = node.NVLinkPairLinks(r, g)
		}
		*slot = joinLinks(node.HostToGPULinks(r), hop)
	}
	return *slot
}

// crossPair returns the route table of one cross-node GPU pair, building
// its own-NIC path on first use.
func (rt *Routes) crossPair(src, sg, dst, dg int) *crossRoutes {
	n, g := len(rt.cluster.Nodes), rt.gpus
	if rt.cross == nil {
		rt.cross = make([]*crossRoutes, n*n*g*g)
	}
	slot := &rt.cross[((src*n+dst)*g+sg)*g+dg]
	if *slot == nil {
		*slot = &crossRoutes{
			own: directNICPath(rt.cluster.Node(src), sg, rt.cluster.Node(dst), dg),
			via: make([][]topology.LinkID, g*g),
		}
	}
	return *slot
}

// viaCross returns the memoized route sg → donor r → r's NIC → landing →
// dg of one cross-node pair.
func (rt *Routes) viaCross(cr *crossRoutes, src *topology.Node, sg int, dst *topology.Node, dg, r, landing int) []topology.LinkID {
	slot := &cr.via[r*rt.gpus+landing]
	if *slot == nil {
		hop := src.PCIeP2PLinks(sg, r)
		if src.Spec.NVLinkBps(sg, r) > 0 {
			hop = src.NVLinkPairLinks(sg, r)
		}
		var final []topology.LinkID
		if landing != dg {
			if dst.Spec.NVLinkBps(landing, dg) > 0 {
				final = dst.NVLinkPairLinks(landing, dg)
			} else {
				final = dst.PCIeP2PLinks(landing, dg)
			}
		}
		nic := src.Spec.GPUNIC[r]
		*slot = joinLinks(hop, src.GPUToNICLinks(r, nic), dst.NICToGPULinks(nic, landing), final)
	}
	return *slot
}

// directNICPath is the single-NIC GDR path used by every system's base case.
func directNICPath(src *topology.Node, sg int, dst *topology.Node, dg int) []topology.LinkID {
	nic := src.Spec.GPUNIC[sg]
	rnic := nic
	if rnic >= dst.Spec.NICCount {
		rnic = dst.Spec.NICCount - 1
	}
	return joinLinks(src.GPUToNICLinks(sg, nic), dst.NICToGPULinks(rnic, dg))
}

// Options builds the rate-control constraints for a transfer with the given
// SLO slack: a Rate_least floor and a priority tier so idle bandwidth goes
// to the tightest SLO first (§4.3.2).
func Options(bytes int64, slo, inferLatency time.Duration) netsim.Options {
	if slo <= 0 {
		return netsim.Options{}
	}
	budget := slo - inferLatency
	if budget <= 0 {
		budget = time.Millisecond
	}
	return netsim.Options{
		MinRate:  float64(bytes) / budget.Seconds(),
		Priority: Priority(budget),
	}
}

// Priority maps SLO slack to a netsim priority tier: tighter slack → higher
// tier. Slacks of a second or more share tier 0.
func Priority(slack time.Duration) int {
	switch {
	case slack <= 0:
		return 64
	case slack >= time.Second:
		return 0
	default:
		// Logarithmic buckets between 1ms (tier ~10) and 1s (tier 0).
		tier := 0
		for d := time.Second; d > slack && tier < 64; d /= 2 {
			tier++
		}
		return tier
	}
}
