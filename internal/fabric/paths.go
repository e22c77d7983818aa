package fabric

import "grouter/internal/topology"

// singlePath is one memoized SinglePath answer; nil links mark an entry not
// built yet.
type singlePath struct {
	links     []topology.LinkID
	hostStack bool
}

// SinglePath returns the canonical single-link-path between two locations —
// what a topology-oblivious system uses: direct NVLink when present, PCIe
// peer-to-peer otherwise, the local PCIe route for GPU↔host, one
// GPUDirect-RDMA NIC pair across nodes, and the kernel network stack for
// host↔host. hostStack reports whether the path is host-mediated (charged
// extra per-transfer latency by the transfer engine).
//
// The path depends on the topology alone, so each (from, to) pair's answer
// is built once and shared: callers must not modify the returned slice.
func (f *Fabric) SinglePath(from, to Location) (links []topology.LinkID, hostStack bool) {
	if from == to {
		return nil, false
	}
	per := f.Spec().NumGPUs + 1
	if f.single == nil {
		f.single = make([][]singlePath, f.NumNodes()*per)
	}
	row := &f.single[from.Node*per+from.GPU+1]
	if *row == nil {
		*row = make([]singlePath, f.NumNodes()*per)
	}
	sp := &(*row)[to.Node*per+to.GPU+1]
	if sp.links == nil {
		sp.links, sp.hostStack = f.buildSinglePath(from, to)
	}
	return sp.links, sp.hostStack
}

// buildSinglePath computes SinglePath's answer for two distinct locations.
// Every returned slice is exactly sized, so an append by a caller copies.
func (f *Fabric) buildSinglePath(from, to Location) ([]topology.LinkID, bool) {
	src, dst := f.Topo(from.Node), f.Topo(to.Node)
	switch {
	case from.Node == to.Node && !from.IsHost() && !to.IsHost():
		if src.Spec.NVLinkBps(from.GPU, to.GPU) > 0 {
			return src.NVLinkPathLinks([]int{from.GPU, to.GPU}), false
		}
		return src.PCIeP2PLinks(from.GPU, to.GPU), false
	case from.Node == to.Node && from.IsHost():
		return src.HostToGPULinks(to.GPU), false
	case from.Node == to.Node && to.IsHost():
		return src.GPUToHostLinks(from.GPU), false
	case !from.IsHost() && !to.IsHost():
		// Cross-node gFn-gFn: GDR through the source GPU's nearest NIC.
		nic := src.Spec.GPUNIC[from.GPU]
		return join(src.GPUToNICLinks(from.GPU, nic), dst.NICToGPULinks(clampNIC(dst, nic), to.GPU)), false
	case from.IsHost() && to.IsHost():
		return []topology.LinkID{src.NICTx(0), dst.NICRx(0)}, true
	case from.IsHost():
		// Host on one node to a GPU on another: NIC pair plus the remote
		// PCIe descent.
		nic := dst.Spec.GPUNIC[to.GPU]
		return join([]topology.LinkID{src.NICTx(clampNIC(src, nic))}, dst.NICToGPULinks(nic, to.GPU)), true
	default:
		// GPU to a remote host.
		nic := src.Spec.GPUNIC[from.GPU]
		return join(src.GPUToNICLinks(from.GPU, nic), []topology.LinkID{dst.NICRx(clampNIC(dst, nic))}), true
	}
}

// clampNIC maps a NIC index onto a node that may have fewer NICs.
func clampNIC(n *topology.Node, nic int) int {
	if nic >= n.Spec.NICCount {
		return n.Spec.NICCount - 1
	}
	return nic
}

// join concatenates two link paths into one exactly-sized slice.
func join(a, b []topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(a)+len(b))
	return append(append(out, a...), b...)
}
