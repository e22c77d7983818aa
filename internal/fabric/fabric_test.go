package fabric

import (
	"reflect"
	"testing"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

func TestNewFabricWiring(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := New(e, topology.DGXV100(), 2)
	if f.NumNodes() != 2 {
		t.Fatalf("nodes = %d", f.NumNodes())
	}
	if len(f.NodeF(0).GPUs) != 8 {
		t.Fatalf("gpus = %d", len(f.NodeF(0).GPUs))
	}
	// Every topology link must be registered in the network.
	for _, l := range f.Cluster.Links() {
		if !f.Net.HasLink(l.ID) {
			t.Errorf("link %s missing from netsim", l.ID)
		}
	}
	// Memory devices sized per spec.
	if got := f.NodeF(1).GPUs[3].Capacity; got != 16*topology.GB {
		t.Errorf("gpu capacity = %d", got)
	}
	if got := f.NodeF(0).Host.Capacity; got != 244*topology.GB {
		t.Errorf("host capacity = %d", got)
	}
	if f.NodeF(0).Pinned.Capacity() != DefaultPinnedBufferBytes {
		t.Error("pinned gate not sized")
	}
}

func TestLocationHelpers(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := New(e, topology.DGXV100(), 1)
	gpu := Location{Node: 0, GPU: 2}
	host := Location{Node: 0, GPU: HostGPU}
	if gpu.IsHost() || !host.IsHost() {
		t.Error("IsHost misclassifies")
	}
	if gpu.String() != "n0.gpu2" || host.String() != "n0.host" {
		t.Errorf("String() = %s / %s", gpu, host)
	}
	if f.Mem(gpu) != f.NodeF(0).GPUs[2] {
		t.Error("Mem(gpu) wrong device")
	}
	if f.Mem(host) != f.NodeF(0).Host {
		t.Error("Mem(host) wrong device")
	}
}

func TestSinglePathShapes(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	f := New(e, topology.DGXV100(), 2)
	cases := []struct {
		name      string
		from, to  Location
		wantLinks int
		hostStack bool
	}{
		{"same location", Location{0, 0}, Location{0, 0}, 0, false},
		{"nvlink pair", Location{0, 0}, Location{0, 3}, 1, false},
		{"pcie p2p pair", Location{0, 0}, Location{0, 5}, 4, false},
		{"gpu to host", Location{0, 1}, Location{0, HostGPU}, 2, false},
		{"host to gpu", Location{0, HostGPU}, Location{0, 1}, 2, false},
		{"cross-node gdr", Location{0, 0}, Location{1, 0}, 4, false},
		{"host to host", Location{0, HostGPU}, Location{1, HostGPU}, 2, true},
		{"host to remote gpu", Location{0, HostGPU}, Location{1, 2}, 3, true},
		{"gpu to remote host", Location{0, 2}, Location{1, HostGPU}, 3, true},
	}
	for _, c := range cases {
		links, hostStack := f.SinglePath(c.from, c.to)
		if len(links) != c.wantLinks {
			t.Errorf("%s: %d links (%v), want %d", c.name, len(links), links, c.wantLinks)
		}
		if hostStack != c.hostStack {
			t.Errorf("%s: hostStack = %v, want %v", c.name, hostStack, c.hostStack)
		}
		// All links must exist in the network.
		for _, id := range links {
			if !f.Net.HasLink(id) {
				t.Errorf("%s: unknown link %s", c.name, id)
			}
		}
	}
}

// TestSinglePathMatchesReference is the SinglePath oracle: on every builtin
// topology, for every ordered pair of locations — GPUs and hosts, on one
// node and across both node orders — the shared answer equals the uncached
// reference, asked twice so the second answer comes from the memo.
func TestSinglePathMatchesReference(t *testing.T) {
	for _, name := range []string{"dgx-v100", "dgx-a100", "h800x8", "quad-a10"} {
		e := sim.NewEngine()
		f := New(e, topology.SpecByName(name), 2)
		var locs []Location
		for n := 0; n < 2; n++ {
			for g := HostGPU; g < f.Spec().NumGPUs; g++ {
				locs = append(locs, Location{Node: n, GPU: g})
			}
		}
		for round := 0; round < 2; round++ {
			for _, from := range locs {
				for _, to := range locs {
					links, hostStack := f.SinglePath(from, to)
					wantLinks, wantStack := refSinglePath(f, from, to)
					if !reflect.DeepEqual(links, wantLinks) || hostStack != wantStack {
						t.Fatalf("%s %v→%v: got %v (host stack %v), want %v (%v)", name, from, to, links, hostStack, wantLinks, wantStack)
					}
					if len(links) != cap(links) {
						t.Fatalf("%s %v→%v: shared path has spare capacity %d > %d", name, from, to, cap(links), len(links))
					}
				}
			}
		}
		if n := testing.AllocsPerRun(10, func() { f.SinglePath(locs[1], locs[len(locs)-1]) }); n != 0 {
			t.Errorf("%s: a warm SinglePath allocates %.1f times, want 0", name, n)
		}
		e.Close()
	}
}

// refSinglePath is SinglePath as it was before its answers were shared: it
// builds the path again on every call. It is the reference the SinglePath
// oracle compares against.
func refSinglePath(f *Fabric, from, to Location) (links []topology.LinkID, hostStack bool) {
	if from == to {
		return nil, false
	}
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
		rnic := nic
		if rnic >= dst.Spec.NICCount {
			rnic = dst.Spec.NICCount - 1
		}
		links = append(links, src.GPUToNICLinks(from.GPU, nic)...)
		links = append(links, dst.NICToGPULinks(rnic, to.GPU)...)
		return links, false
	case from.IsHost() && to.IsHost():
		links = append(links, src.NICTx(0), dst.NICRx(0))
		return links, true
	case from.IsHost():
		// Host on one node to a GPU on another: NIC pair plus the remote
		// PCIe descent.
		nic := dst.Spec.GPUNIC[to.GPU]
		snic := nic
		if snic >= src.Spec.NICCount {
			snic = src.Spec.NICCount - 1
		}
		links = append(links, src.NICTx(snic))
		links = append(links, dst.NICToGPULinks(nic, to.GPU)...)
		return links, true
	default:
		// GPU to a remote host.
		nic := src.Spec.GPUNIC[from.GPU]
		rnic := nic
		if rnic >= dst.Spec.NICCount {
			rnic = dst.Spec.NICCount - 1
		}
		links = append(links, src.GPUToNICLinks(from.GPU, nic)...)
		links = append(links, dst.NICRx(rnic))
		return links, true
	}
}
