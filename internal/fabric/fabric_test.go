package fabric

import (
	"fmt"
	"reflect"
	"runtime"
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
	// Every topology link must be in the network, at its capacity.
	for id := topology.LinkID(0); int(id) < f.Cluster.NumLinks(); id++ {
		if got, want := f.Net.Capacity(id), f.Cluster.LinkBps(id); got != want {
			t.Errorf("link %s capacity %f in netsim, want %f", f.Cluster.LinkName(id), got, want)
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
			if id < 0 || int(id) >= f.Cluster.NumLinks() {
				t.Errorf("%s: unknown link %d", c.name, id)
			}
		}
	}
}

// TestSinglePathMatchesReference is the SinglePath oracle: on every builtin
// topology, for every ordered pair of locations — GPUs and hosts, on one
// node and across both node orders — the shared answer equals the uncached
// reference by name, asked twice so the second answer comes from the memo.
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
					got := names(f.Cluster, links)
					want, wantStack := refSinglePath(f, from, to)
					if !reflect.DeepEqual(got, want) || hostStack != wantStack {
						t.Fatalf("%s %v→%v: got %v (host stack %v), want %v (%v)", name, from, to, got, hostStack, want, wantStack)
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

// names formats a path's handles; a path with no links has no names.
func names(c *topology.Cluster, links []topology.LinkID) []string {
	var out []string
	for _, id := range links {
		out = append(out, c.LinkName(id))
	}
	return out
}

// refNode names one node's links as strings, the way the topology named
// them before links had handles.
type refNode struct {
	id   int
	spec *topology.Spec
}

func (r refNode) name(format string, a ...any) string {
	return fmt.Sprintf("n%d.", r.id) + fmt.Sprintf(format, a...)
}

func (r refNode) p2p(i, j int) []string {
	si, sj := r.spec.PCIeGroup[i], r.spec.PCIeGroup[j]
	if si == sj {
		return []string{r.name("pcie.g%d.up", i), r.name("pcie.g%d.down", j)}
	}
	return []string{r.name("pcie.g%d.up", i), r.name("pcie.sw%d.up", si), r.name("pcie.sw%d.down", sj), r.name("pcie.g%d.down", j)}
}

func (r refNode) gpuToNIC(g, k int) []string {
	sg, sk := r.spec.PCIeGroup[g], r.spec.NICGroup[k]
	if sg == sk {
		return []string{r.name("pcie.g%d.up", g), r.name("nic%d.tx", k)}
	}
	return []string{r.name("pcie.g%d.up", g), r.name("pcie.sw%d.up", sg), r.name("pcie.sw%d.down", sk), r.name("nic%d.tx", k)}
}

func (r refNode) nicToGPU(k, g int) []string {
	sk, sg := r.spec.NICGroup[k], r.spec.PCIeGroup[g]
	if sk == sg {
		return []string{r.name("nic%d.rx", k), r.name("pcie.g%d.down", g)}
	}
	return []string{r.name("nic%d.rx", k), r.name("pcie.sw%d.up", sk), r.name("pcie.sw%d.down", sg), r.name("pcie.g%d.down", g)}
}

// refSinglePath is SinglePath as it was before its answers were shared and
// links had handles: it builds the path's link names again on every call.
// It is the reference the SinglePath oracle compares against.
func refSinglePath(f *Fabric, from, to Location) (links []string, hostStack bool) {
	if from == to {
		return nil, false
	}
	spec := f.Spec()
	src, dst := refNode{from.Node, spec}, refNode{to.Node, spec}
	switch {
	case from.Node == to.Node && !from.IsHost() && !to.IsHost():
		if spec.NVLinkBps(from.GPU, to.GPU) > 0 {
			if spec.Switched {
				return []string{src.name("nvsw.g%d.out", from.GPU), src.name("nvsw.g%d.in", to.GPU)}, false
			}
			return []string{src.name("nv.%d>%d", from.GPU, to.GPU)}, false
		}
		return src.p2p(from.GPU, to.GPU), false
	case from.Node == to.Node && from.IsHost():
		return []string{src.name("pcie.sw%d.down", spec.PCIeGroup[to.GPU]), src.name("pcie.g%d.down", to.GPU)}, false
	case from.Node == to.Node && to.IsHost():
		return []string{src.name("pcie.g%d.up", from.GPU), src.name("pcie.sw%d.up", spec.PCIeGroup[from.GPU])}, false
	case !from.IsHost() && !to.IsHost():
		// Cross-node gFn-gFn: GDR through the source GPU's nearest NIC.
		nic := spec.GPUNIC[from.GPU]
		rnic := nic
		if rnic >= spec.NICCount {
			rnic = spec.NICCount - 1
		}
		links = append(links, src.gpuToNIC(from.GPU, nic)...)
		links = append(links, dst.nicToGPU(rnic, to.GPU)...)
		return links, false
	case from.IsHost() && to.IsHost():
		links = append(links, src.name("nic0.tx"), dst.name("nic0.rx"))
		return links, true
	case from.IsHost():
		// Host on one node to a GPU on another: NIC pair plus the remote
		// PCIe descent.
		nic := spec.GPUNIC[to.GPU]
		snic := nic
		if snic >= spec.NICCount {
			snic = spec.NICCount - 1
		}
		links = append(links, src.name("nic%d.tx", snic))
		links = append(links, dst.nicToGPU(nic, to.GPU)...)
		return links, true
	default:
		// GPU to a remote host.
		nic := spec.GPUNIC[from.GPU]
		rnic := nic
		if rnic >= spec.NICCount {
			rnic = spec.NICCount - 1
		}
		links = append(links, src.gpuToNIC(from.GPU, nic)...)
		links = append(links, dst.name("nic%d.rx", rnic))
		return links, true
	}
}

// TestNewAllocationBudget pins what building a fabric costs now that links
// are numbered, not named: a 2-node DGX-V100 fabric builds no per-node
// name tables, no name-sorted link list and no name index, and allocates
// at most a quarter of the 95.5 KB it took with string link IDs.
func TestNewAllocationBudget(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	const builds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		New(e, topology.DGXV100(), 2)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > 95500/4 {
		t.Errorf("fabric.New allocates %d B per 2-node DGX-V100 build, want at most %d", per, 95500/4)
	}
}
