package topology

import "sort"

// Node is one server instance inside a cluster. It owns a namespace of link
// IDs derived from its node index.
type Node struct {
	ID   int
	Spec *Spec

	// pathCache memoizes NVLinkPaths results: path selection runs on every
	// transfer, and the paper's <10µs selection budget (§4.3.3) assumes the
	// loop-free search is amortized.
	pathCache map[pathKey][][]int
	// ln caches link IDs and canonical link paths (see names.go).
	ln *linkNames
}

type pathKey struct{ src, dst, maxHops int }

// Cluster is a set of identical nodes connected through their NICs.
type Cluster struct {
	Spec  *Spec
	Nodes []*Node
}

// NewCluster builds a cluster of n nodes of the given spec. It panics on an
// invalid spec, which is always a programming error.
func NewCluster(spec *Spec, n int) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{Spec: spec}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &Node{ID: i, Spec: spec})
	}
	return c
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// Links enumerates every directed link in the cluster, sorted by ID for
// determinism.
func (c *Cluster) Links() []Link {
	var out []Link
	for _, nd := range c.Nodes {
		out = append(out, nd.Links()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- link naming ---

// NVLinkTo names the directed NVLink link GPU i → GPU j on this node.
// Valid only for mesh topologies with a direct connection.
func (n *Node) NVLinkTo(i, j int) LinkID { return n.names().nvTo[i][j] }

// NVPortOut and NVPortIn name a GPU's NVSwitch injection/ejection ports.
func (n *Node) NVPortOut(g int) LinkID { return n.names().nvPortOut[g] }

// NVPortIn names GPU g's NVSwitch ejection port.
func (n *Node) NVPortIn(g int) LinkID { return n.names().nvPortIn[g] }

// PCIeGPUUp and PCIeGPUDown name GPU g's own x16 link (toward/from switch).
func (n *Node) PCIeGPUUp(g int) LinkID { return n.names().pcieUp[g] }

// PCIeGPUDown names GPU g's x16 link in the host→GPU direction.
func (n *Node) PCIeGPUDown(g int) LinkID { return n.names().pcieDown[g] }

// PCIeSwitchUp and PCIeSwitchDown name switch s's host uplink.
func (n *Node) PCIeSwitchUp(s int) LinkID { return n.names().swUp[s] }

// PCIeSwitchDown names switch s's uplink in the host→switch direction.
func (n *Node) PCIeSwitchDown(s int) LinkID { return n.names().swDown[s] }

// NICTx and NICRx name NIC k's transmit/receive sides.
func (n *Node) NICTx(k int) LinkID { return n.names().nicTx[k] }

// NICRx names NIC k's receive side.
func (n *Node) NICRx(k int) LinkID { return n.names().nicRx[k] }

// Links enumerates all directed links on this node.
func (n *Node) Links() []Link {
	s := n.Spec
	var out []Link
	if s.Switched {
		for g := 0; g < s.NumGPUs; g++ {
			out = append(out,
				Link{n.NVPortOut(g), KindNVSwitchPort, s.SwitchPortBps},
				Link{n.NVPortIn(g), KindNVSwitchPort, s.SwitchPortBps},
			)
		}
	} else {
		for i := 0; i < s.NumGPUs; i++ {
			for j := 0; j < s.NumGPUs; j++ {
				if i != j && s.NVAdj[i][j] > 0 {
					out = append(out, Link{n.NVLinkTo(i, j), KindNVLink, s.NVAdj[i][j]})
				}
			}
		}
	}
	for g := 0; g < s.NumGPUs; g++ {
		out = append(out,
			Link{n.PCIeGPUUp(g), KindPCIeGPU, s.PCIeBps},
			Link{n.PCIeGPUDown(g), KindPCIeGPU, s.PCIeBps},
		)
	}
	switches := map[int]bool{}
	for _, g := range s.PCIeGroup {
		switches[g] = true
	}
	var sws []int
	for sw := range switches {
		sws = append(sws, sw)
	}
	sort.Ints(sws)
	for _, sw := range sws {
		out = append(out,
			Link{n.PCIeSwitchUp(sw), KindPCIeSwitch, s.PCIeBps},
			Link{n.PCIeSwitchDown(sw), KindPCIeSwitch, s.PCIeBps},
		)
	}
	for k := 0; k < s.NICCount; k++ {
		out = append(out,
			Link{n.NICTx(k), KindNIC, s.NICBps},
			Link{n.NICRx(k), KindNIC, s.NICBps},
		)
	}
	return out
}

// --- path construction ---

// GPUToHostLinks returns the link path for staging data from GPU g to host
// memory: the GPU's own x16 link, then its switch's shared host uplink.
func (n *Node) GPUToHostLinks(g int) []LinkID { return n.names().gpuToHost[g] }

// HostToGPULinks is the reverse of GPUToHostLinks.
func (n *Node) HostToGPULinks(g int) []LinkID { return n.names().hostToGPU[g] }

// PCIeP2PLinks returns the PCIe peer-to-peer path GPU i → GPU j. Under the
// same switch, traffic stays below the switch (both x16 links only); across
// switches it additionally crosses both host uplinks.
func (n *Node) PCIeP2PLinks(i, j int) []LinkID { return n.names().p2p[i][j] }

// NVLinkPathLinks converts a GPU-hop sequence (e.g. [4 6 7 1]) into link IDs.
// On switched fabrics only direct two-GPU sequences are valid. A two-GPU
// sequence returns the node's cached list, which callers must not modify.
func (n *Node) NVLinkPathLinks(gpus []int) []LinkID {
	if len(gpus) == 2 {
		return n.names().nvPair[gpus[0]][gpus[1]]
	}
	return n.AppendNVLinkPathLinks(nil, gpus)
}

// AppendNVLinkPathLinks appends the link IDs of a GPU-hop sequence to dst and
// returns the extended slice; it allocates only when dst lacks room.
func (n *Node) AppendNVLinkPathLinks(dst []LinkID, gpus []int) []LinkID {
	if len(gpus) < 2 {
		return dst
	}
	if n.Spec.Switched {
		if len(gpus) != 2 {
			panic("topology: multi-hop NVLink path on a switched fabric")
		}
		return append(dst, n.names().nvPair[gpus[0]][gpus[1]]...)
	}
	for i := 0; i+1 < len(gpus); i++ {
		dst = append(dst, n.NVLinkTo(gpus[i], gpus[i+1]))
	}
	return dst
}

// NVLinkPairLinks is the single-hop NVLink path a → b, served from the
// node's path cache without allocating.
func (n *Node) NVLinkPairLinks(a, b int) []LinkID { return n.names().nvPair[a][b] }

// GPUToNICLinks returns the GPUDirect path from GPU g out through NIC k. A
// NIC under g's own PCIe switch is reached peer-to-peer over g's x16 link; a
// NIC under another switch additionally crosses both host uplinks.
func (n *Node) GPUToNICLinks(g, k int) []LinkID { return n.names().gpuToNIC[g][k] }

// NICToGPULinks is the receive-side mirror of GPUToNICLinks.
func (n *Node) NICToGPULinks(k, g int) []LinkID { return n.names().nicToGPU[k][g] }

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
