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

// exact copies a route built in a scratch buffer into an exactly-sized
// slice, so an append by a caller copies instead of writing into the table.
func exact(links []topology.LinkID) []topology.LinkID {
	return append(make([]topology.LinkID, 0, len(links)), links...)
}

// appendHop appends the GPU a → GPU b hop: NVLink when the pair has it,
// PCIe peer-to-peer when not.
func appendHop(dst []topology.LinkID, node *topology.Node, a, b int) []topology.LinkID {
	if node.Spec.NVLinkBps(a, b) > 0 {
		return node.AppendNVLinkPathLinks(dst, []int{a, b})
	}
	return node.AppendPCIeP2PLinks(dst, a, b)
}

// idleIn reports whether a link has meaningful spare capacity.
func idleIn(net *netsim.Network, id topology.LinkID) bool {
	return net == nil || net.AllocatedOn(id) < busyFraction*net.Capacity(id)
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

	// up[(node*G+g)*G+r] is g → donor r → host, and g's own PCIe route
	// when r == g; down the host → r → g mirror. Both tables are allocated
	// on first use.
	up, down [][]topology.LinkID
	// cross[((src*N+dst)*G+sg)*G+dg] holds the GDR routes of one GPU pair,
	// allocated when the pair first transfers: [r*G+landing] is the route
	// through donor r landing on landing, and [sg*G+dg] the source GPU's
	// own NIC path.
	cross [][][]topology.LinkID
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
	paths := append(buf[:0], rt.viaUp(node, g, g))
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
	paths := append(buf[:0], rt.viaDown(node, g, g))
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
	sn, dn := rt.cluster.Node(src), rt.cluster.Node(dst)
	cr := rt.crossPair(src, sg, dst, dg)
	paths := append(buf[:0], rt.viaCross(cr, sn, sg, dn, dg, sg, dg))
	if mode == ModeOff {
		return paths
	}
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

// viaUp returns the memoized route g → donor r → host on node, or g's own
// route when r == g.
func (rt *Routes) viaUp(node *topology.Node, g, r int) []topology.LinkID {
	if rt.up == nil {
		rt.up = make([][]topology.LinkID, len(rt.cluster.Nodes)*rt.gpus*rt.gpus)
	}
	slot := &rt.up[(node.ID*rt.gpus+g)*rt.gpus+r]
	if *slot == nil {
		var buf [8]topology.LinkID
		links := buf[:0]
		if r != g {
			links = appendHop(links, node, g, r)
		}
		*slot = exact(node.AppendGPUToHostLinks(links, r))
	}
	return *slot
}

// viaDown returns the memoized route host → donor r → g on node, or g's own
// route when r == g.
func (rt *Routes) viaDown(node *topology.Node, g, r int) []topology.LinkID {
	if rt.down == nil {
		rt.down = make([][]topology.LinkID, len(rt.cluster.Nodes)*rt.gpus*rt.gpus)
	}
	slot := &rt.down[(node.ID*rt.gpus+g)*rt.gpus+r]
	if *slot == nil {
		var buf [8]topology.LinkID
		links := node.AppendHostToGPULinks(buf[:0], r)
		if r != g {
			links = appendHop(links, node, r, g)
		}
		*slot = exact(links)
	}
	return *slot
}

// crossPair returns the route table of one cross-node GPU pair.
func (rt *Routes) crossPair(src, sg, dst, dg int) [][]topology.LinkID {
	n, g := len(rt.cluster.Nodes), rt.gpus
	if rt.cross == nil {
		rt.cross = make([][][]topology.LinkID, n*n*g*g)
	}
	slot := &rt.cross[((src*n+dst)*g+sg)*g+dg]
	if *slot == nil {
		*slot = make([][]topology.LinkID, g*g)
	}
	return *slot
}

// viaCross returns the memoized route sg → donor r → r's NIC → landing →
// dg of one cross-node pair, or sg's own NIC path to dg when r == sg.
func (rt *Routes) viaCross(cr [][]topology.LinkID, src *topology.Node, sg int, dst *topology.Node, dg, r, landing int) []topology.LinkID {
	slot := &cr[r*rt.gpus+landing]
	if *slot == nil {
		var buf [16]topology.LinkID
		nic := src.Spec.GPUNIC[r]
		links := buf[:0]
		if r != sg {
			links = appendHop(links, src, sg, r)
		}
		links = src.AppendGPUToNICLinks(links, r, nic)
		links = dst.AppendNICToGPULinks(links, nic, landing)
		if landing != dg {
			links = appendHop(links, dst, landing, dg)
		}
		*slot = exact(links)
	}
	return *slot
}

// Slack returns the transfer budget a function's latency objective leaves
// after its expected compute time: zero when there is no objective (slo <=
// 0), slo − infer otherwise, and 1 ms when compute already spends the whole
// objective.
func Slack(slo, infer time.Duration) time.Duration {
	if slo <= 0 {
		return 0
	}
	if budget := slo - infer; budget > 0 {
		return budget
	}
	return time.Millisecond
}

// Options builds the rate-control constraints for a transfer of bytes with
// the given slack (see Slack): the floor Rate_least = bytes/slack and a
// priority tier so idle bandwidth goes to the tightest SLO first (§4.3.2).
// A zero slack means no objective and no constraint.
func Options(bytes int64, slack time.Duration) netsim.Options {
	if slack <= 0 {
		return netsim.Options{}
	}
	return netsim.Options{
		MinRate:  float64(bytes) / slack.Seconds(),
		Priority: Priority(slack),
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
