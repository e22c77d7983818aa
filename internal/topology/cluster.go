package topology

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
)

// Node is one server instance inside a cluster. Its links' handles are one
// contiguous block, from base.
type Node struct {
	ID   int
	Spec *Spec

	base LinkID
	lay  *layout

	// pathCache memoizes NVLinkPaths results: path selection runs on every
	// transfer, and the paper's <10µs selection budget (§4.3.3) assumes the
	// loop-free search is amortized.
	pathCache map[pathKey][][]int
}

type pathKey struct{ src, dst, maxHops int }

// Cluster is a set of identical nodes connected through their NICs.
type Cluster struct {
	Spec  *Spec
	Nodes []*Node

	lay    *layout
	ranked []*Node // nodes in handle order
}

// NewCluster builds a cluster of n nodes of the given spec and numbers its
// links. It panics on an invalid spec, which is always a programming error.
func NewCluster(spec *Spec, n int) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{Spec: spec, lay: newLayout(spec), Nodes: make([]*Node, n)}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, Spec: spec, lay: c.lay}
		c.Nodes[i] = &nodes[i]
	}
	// Each node's handles are one block. A name starts with "n<node>.", and
	// '.' sorts before every digit, so the blocks follow the string order of
	// the nodes' decimal IDs: n10.* comes before n2.*.
	c.ranked = slices.Clone(c.Nodes)
	slices.SortFunc(c.ranked, func(a, b *Node) int {
		var ba, bb [20]byte
		return bytes.Compare(strconv.AppendInt(ba[:0], int64(a.ID), 10), strconv.AppendInt(bb[:0], int64(b.ID), 10))
	})
	for r, nd := range c.ranked {
		nd.base = LinkID(r * len(c.lay.links))
	}
	return c
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// --- link handles ---

// NVLinkTo is the directed NVLink link GPU i → GPU j on this node. It
// panics unless the node is a mesh with a direct i → j connection.
func (n *Node) NVLinkTo(i, j int) LinkID { return n.link(formNVLink, i*n.Spec.NumGPUs+j) }

// NVPortOut is GPU g's NVSwitch injection port.
func (n *Node) NVPortOut(g int) LinkID { return n.link(formNVPortOut, g) }

// NVPortIn is GPU g's NVSwitch ejection port.
func (n *Node) NVPortIn(g int) LinkID { return n.link(formNVPortIn, g) }

// PCIeGPUUp is GPU g's own x16 link toward its switch.
func (n *Node) PCIeGPUUp(g int) LinkID { return n.link(formPCIeGPUUp, g) }

// PCIeGPUDown is GPU g's x16 link in the host→GPU direction.
func (n *Node) PCIeGPUDown(g int) LinkID { return n.link(formPCIeGPUDown, g) }

// PCIeSwitchUp is switch s's host uplink in the switch→host direction.
func (n *Node) PCIeSwitchUp(s int) LinkID { return n.link(formSwitchUp, s) }

// PCIeSwitchDown is switch s's uplink in the host→switch direction.
func (n *Node) PCIeSwitchDown(s int) LinkID { return n.link(formSwitchDown, s) }

// NICTx is NIC k's transmit side.
func (n *Node) NICTx(k int) LinkID { return n.link(formNICTx, k) }

// NICRx is NIC k's receive side.
func (n *Node) NICRx(k int) LinkID { return n.link(formNICRx, k) }

// --- path construction ---
//
// Each Append*Links function appends a canonical link path to dst and
// returns the extended slice; it allocates only when dst lacks room.

// AppendGPUToHostLinks appends the path for staging data from GPU g to host
// memory: the GPU's own x16 link, then its switch's shared host uplink.
func (n *Node) AppendGPUToHostLinks(dst []LinkID, g int) []LinkID {
	return append(dst, n.PCIeGPUUp(g), n.PCIeSwitchUp(n.Spec.PCIeGroup[g]))
}

// AppendHostToGPULinks appends the reverse of AppendGPUToHostLinks.
func (n *Node) AppendHostToGPULinks(dst []LinkID, g int) []LinkID {
	return append(dst, n.PCIeSwitchDown(n.Spec.PCIeGroup[g]), n.PCIeGPUDown(g))
}

// AppendPCIeP2PLinks appends the PCIe peer-to-peer path GPU i → GPU j.
// Under the same switch, traffic stays below the switch (both x16 links
// only); across switches it additionally crosses both host uplinks.
func (n *Node) AppendPCIeP2PLinks(dst []LinkID, i, j int) []LinkID {
	si, sj := n.Spec.PCIeGroup[i], n.Spec.PCIeGroup[j]
	if si == sj {
		return append(dst, n.PCIeGPUUp(i), n.PCIeGPUDown(j))
	}
	return append(dst, n.PCIeGPUUp(i), n.PCIeSwitchUp(si), n.PCIeSwitchDown(sj), n.PCIeGPUDown(j))
}

// AppendNVLinkPathLinks appends the links of a GPU-hop sequence (e.g.
// [4 6 7 1]). On switched fabrics only direct two-GPU sequences are valid.
func (n *Node) AppendNVLinkPathLinks(dst []LinkID, gpus []int) []LinkID {
	if len(gpus) < 2 {
		return dst
	}
	if n.Spec.Switched {
		if len(gpus) != 2 {
			panic("topology: multi-hop NVLink path on a switched fabric")
		}
		return append(dst, n.NVPortOut(gpus[0]), n.NVPortIn(gpus[1]))
	}
	for i := 0; i+1 < len(gpus); i++ {
		dst = append(dst, n.NVLinkTo(gpus[i], gpus[i+1]))
	}
	return dst
}

// AppendGPUToNICLinks appends the GPUDirect path from GPU g out through NIC
// k. A NIC under g's own PCIe switch is reached peer-to-peer over g's x16
// link; a NIC under another switch additionally crosses both host uplinks.
func (n *Node) AppendGPUToNICLinks(dst []LinkID, g, k int) []LinkID {
	sg, sk := n.Spec.PCIeGroup[g], n.Spec.NICGroup[k]
	if sg == sk {
		return append(dst, n.PCIeGPUUp(g), n.NICTx(k))
	}
	return append(dst, n.PCIeGPUUp(g), n.PCIeSwitchUp(sg), n.PCIeSwitchDown(sk), n.NICTx(k))
}

// AppendNICToGPULinks appends the receive-side mirror of
// AppendGPUToNICLinks.
func (n *Node) AppendNICToGPULinks(dst []LinkID, k, g int) []LinkID {
	sk, sg := n.Spec.NICGroup[k], n.Spec.PCIeGroup[g]
	if sk == sg {
		return append(dst, n.NICRx(k), n.PCIeGPUDown(g))
	}
	return append(dst, n.NICRx(k), n.PCIeSwitchUp(sk), n.PCIeSwitchDown(sg), n.PCIeGPUDown(g))
}

// NVLinkPaths enumerates simple NVLink paths from src to dst with at most
// maxHops hops (maxHops=1 yields only the direct path). Paths are returned
// as GPU sequences sorted by (length, lexicographic order) for determinism.
// On switched fabrics the single switch path is returned. Results are cached
// per (src, dst, maxHops): callers must not modify them.
func (n *Node) NVLinkPaths(src, dst, maxHops int) [][]int {
	s := n.Spec
	if src == dst {
		return nil
	}
	key := pathKey{src, dst, maxHops}
	if cached, ok := n.pathCache[key]; ok {
		return cached
	}
	if n.pathCache == nil {
		n.pathCache = make(map[pathKey][][]int)
	}
	if s.Switched {
		paths := [][]int{{src, dst}}
		n.pathCache[key] = paths
		return paths
	}
	var paths [][]int
	visited := make([]bool, s.NumGPUs)
	visited[src] = true
	var dfs func(cur int, path []int)
	dfs = func(cur int, path []int) {
		if len(path)-1 > maxHops {
			return
		}
		if cur == dst {
			cp := make([]int, len(path))
			copy(cp, path)
			paths = append(paths, cp)
			return
		}
		if len(path)-1 == maxHops {
			return
		}
		for next := 0; next < s.NumGPUs; next++ {
			if !visited[next] && s.NVAdj[cur][next] > 0 {
				visited[next] = true
				dfs(next, append(path, next))
				visited[next] = false
			}
		}
	}
	dfs(src, []int{src})
	sort.Slice(paths, func(a, b int) bool {
		pa, pb := paths[a], paths[b]
		if len(pa) != len(pb) {
			return len(pa) < len(pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return pa[i] < pb[i]
			}
		}
		return false
	})
	n.pathCache[key] = paths
	return paths
}

// PathBandwidth returns the bottleneck NVLink bandwidth of a GPU-hop path.
func (n *Node) PathBandwidth(gpus []int) float64 {
	s := n.Spec
	if len(gpus) < 2 {
		return 0
	}
	min := -1.0
	for i := 0; i+1 < len(gpus); i++ {
		b := s.NVLinkBps(gpus[i], gpus[i+1])
		if b == 0 {
			return 0
		}
		if min < 0 || b < min {
			min = b
		}
	}
	return min
}
