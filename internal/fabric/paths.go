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
	var buf [8]topology.LinkID
	links, hostStack := buf[:0], false
	switch {
	case from.Node == to.Node && !from.IsHost() && !to.IsHost():
		if src.Spec.NVLinkBps(from.GPU, to.GPU) > 0 {
			links = src.AppendNVLinkPathLinks(links, []int{from.GPU, to.GPU})
		} else {
			links = src.AppendPCIeP2PLinks(links, from.GPU, to.GPU)
		}
	case from.Node == to.Node && from.IsHost():
		links = src.AppendHostToGPULinks(links, to.GPU)
	case from.Node == to.Node && to.IsHost():
		links = src.AppendGPUToHostLinks(links, from.GPU)
	case !from.IsHost() && !to.IsHost():
		// Cross-node gFn-gFn: GDR through the source GPU's nearest NIC.
		nic := src.Spec.GPUNIC[from.GPU]
		links = src.AppendGPUToNICLinks(links, from.GPU, nic)
		links = dst.AppendNICToGPULinks(links, nic, to.GPU)
	case from.IsHost() && to.IsHost():
		links, hostStack = append(links, src.NICTx(0), dst.NICRx(0)), true
	case from.IsHost():
		// Host on one node to a GPU on another: NIC pair plus the remote
		// PCIe descent.
		nic := dst.Spec.GPUNIC[to.GPU]
		links = append(links, src.NICTx(nic))
		links, hostStack = dst.AppendNICToGPULinks(links, nic, to.GPU), true
	default:
		// GPU to a remote host.
		nic := src.Spec.GPUNIC[from.GPU]
		links = src.AppendGPUToNICLinks(links, from.GPU, nic)
		links, hostStack = append(links, dst.NICRx(nic)), true
	}
	return append(make([]topology.LinkID, 0, len(links)), links...), hostStack
}
