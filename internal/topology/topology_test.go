package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuiltinSpecsValidate(t *testing.T) {
	for _, name := range []string{"dgx-v100", "dgx-a100", "h800x8", "quad-a10"} {
		s := SpecByName(name)
		if s == nil {
			t.Fatalf("SpecByName(%q) = nil", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if SpecByName("nope") != nil {
		t.Error("unknown spec should be nil")
	}
}

func TestDGXV100PairClassesMatchPaper(t *testing.T) {
	// Paper Fig. 6(a): 28% of pairs have half bandwidth, 42% have no direct
	// NVLink (of 28 unordered pairs: 8 single-brick, 12 none, 8 double).
	classes := DGXV100().PairClasses()
	if classes[PairSingle] != 8 {
		t.Errorf("single-brick pairs = %d, want 8", classes[PairSingle])
	}
	if classes[PairNoNVLink] != 12 {
		t.Errorf("no-NVLink pairs = %d, want 12", classes[PairNoNVLink])
	}
	if classes[PairDouble] != 8 {
		t.Errorf("double-brick pairs = %d, want 8", classes[PairDouble])
	}
}

func TestDGXV100LinkBudget(t *testing.T) {
	// Each V100 has exactly 6 NVLink bricks of 24 GB/s.
	s := DGXV100()
	for g := 0; g < s.NumGPUs; g++ {
		total := 0.0
		for j := 0; j < s.NumGPUs; j++ {
			total += s.NVAdj[g][j]
		}
		if want := GBps(6 * 24); total != want {
			t.Errorf("GPU %d NVLink budget = %.0f, want %.0f", g, total, want)
		}
	}
}

func TestSwitchPeers(t *testing.T) {
	s := DGXV100()
	peers := s.SwitchPeers(0)
	if len(peers) != 1 || peers[0] != 1 {
		t.Errorf("SwitchPeers(0) = %v, want [1]", peers)
	}
	a10 := QuadA10()
	if got := a10.SwitchPeers(2); len(got) != 0 {
		t.Errorf("QuadA10 SwitchPeers(2) = %v, want empty", got)
	}
}

func TestNVNeighbors(t *testing.T) {
	s := DGXV100()
	got := s.NVNeighbors(0)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("NVNeighbors(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NVNeighbors(0) = %v, want %v", got, want)
		}
	}
	// Switched fabric: everyone is a neighbor.
	a100 := DGXA100()
	if got := a100.NVNeighbors(3); len(got) != 7 {
		t.Errorf("A100 NVNeighbors(3) has %d entries, want 7", len(got))
	}
}

// refNode names one node's links as strings, the way the topology named
// them before links had handles. It is the oracle the handle layer is
// checked against.
type refNode struct {
	id   int
	spec *Spec
}

func (r refNode) name(format string, a ...any) string {
	return fmt.Sprintf("n%d.", r.id) + fmt.Sprintf(format, a...)
}

// links maps the name of every link of the node to its capacity.
func (r refNode) links() map[string]float64 {
	s := r.spec
	out := map[string]float64{}
	if s.Switched {
		for g := 0; g < s.NumGPUs; g++ {
			out[r.name("nvsw.g%d.out", g)] = s.SwitchPortBps
			out[r.name("nvsw.g%d.in", g)] = s.SwitchPortBps
		}
	} else {
		for i := 0; i < s.NumGPUs; i++ {
			for j := 0; j < s.NumGPUs; j++ {
				if i != j && s.NVAdj[i][j] > 0 {
					out[r.name("nv.%d>%d", i, j)] = s.NVAdj[i][j]
				}
			}
		}
	}
	for g := 0; g < s.NumGPUs; g++ {
		out[r.name("pcie.g%d.up", g)] = s.PCIeBps
		out[r.name("pcie.g%d.down", g)] = s.PCIeBps
		out[r.name("pcie.sw%d.up", s.PCIeGroup[g])] = s.PCIeBps
		out[r.name("pcie.sw%d.down", s.PCIeGroup[g])] = s.PCIeBps
	}
	for k := 0; k < s.NICCount; k++ {
		out[r.name("nic%d.tx", k)] = s.NICBps
		out[r.name("nic%d.rx", k)] = s.NICBps
	}
	return out
}

func (r refNode) gpuToHost(g int) []string {
	return []string{r.name("pcie.g%d.up", g), r.name("pcie.sw%d.up", r.spec.PCIeGroup[g])}
}

func (r refNode) hostToGPU(g int) []string {
	return []string{r.name("pcie.sw%d.down", r.spec.PCIeGroup[g]), r.name("pcie.g%d.down", g)}
}

func (r refNode) p2p(i, j int) []string {
	si, sj := r.spec.PCIeGroup[i], r.spec.PCIeGroup[j]
	if si == sj {
		return []string{r.name("pcie.g%d.up", i), r.name("pcie.g%d.down", j)}
	}
	return []string{r.name("pcie.g%d.up", i), r.name("pcie.sw%d.up", si), r.name("pcie.sw%d.down", sj), r.name("pcie.g%d.down", j)}
}

func (r refNode) nvPair(a, b int) []string {
	if r.spec.Switched {
		return []string{r.name("nvsw.g%d.out", a), r.name("nvsw.g%d.in", b)}
	}
	return []string{r.name("nv.%d>%d", a, b)}
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

// names formats a path's handles.
func names(c *Cluster, links []LinkID) []string {
	out := make([]string, len(links))
	for i, id := range links {
		out[i] = c.LinkName(id)
	}
	return out
}

// TestHandlesFollowNameOrder pins the handle layer to the names it
// replaced: on every builtin topology at 1, 2, 3 and 12 nodes, handle i is
// the i-th link name in sorted order, with that link's capacity, and each
// name resolves back to its handle. At 12 nodes "n10." and "n11." sort
// before "n2.", so numbering the nodes' blocks by ID fails here.
func TestHandlesFollowNameOrder(t *testing.T) {
	for _, name := range []string{"dgx-v100", "dgx-a100", "h800x8", "quad-a10"} {
		for _, nodes := range []int{1, 2, 3, 12} {
			spec := SpecByName(name)
			c := NewCluster(spec, nodes)
			bps := map[string]float64{}
			for n := 0; n < nodes; n++ {
				for l, b := range (refNode{n, spec}).links() {
					bps[l] = b
				}
			}
			want := make([]string, 0, len(bps))
			for l := range bps {
				want = append(want, l)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if c.NumLinks() != len(want) {
				t.Fatalf("%s×%d: %d handles, want %d links", name, nodes, c.NumLinks(), len(want))
			}
			for i, l := range want {
				id := LinkID(i)
				if got := c.LinkName(id); got != l {
					t.Fatalf("%s×%d: handle %d is %s, want %s", name, nodes, i, got, l)
				}
				if got := c.LinkBps(id); got != bps[l] {
					t.Errorf("%s×%d: %s capacity %f, want %f", name, nodes, l, got, bps[l])
				}
				if got, ok := c.LinkByName(l); !ok || got != id {
					t.Errorf("%s×%d: LinkByName(%s) = %d, %v; want %d", name, nodes, l, got, ok, id)
				}
			}
		}
	}
}

// TestHandlesMatchReferenceNames checks every per-node link and canonical
// path against the string-built reference, by name.
func TestHandlesMatchReferenceNames(t *testing.T) {
	for _, name := range []string{"dgx-v100", "dgx-a100", "h800x8", "quad-a10"} {
		spec := SpecByName(name)
		c := NewCluster(spec, 12)
		check := func(what string, got []LinkID, want []string) {
			t.Helper()
			if g := names(c, got); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s %s: got %v, want %v", name, what, g, want)
			}
		}
		for _, n := range c.Nodes {
			ref := refNode{n.ID, spec}
			for k := 0; k < spec.NICCount; k++ {
				check("NICTx", []LinkID{n.NICTx(k)}, []string{ref.name("nic%d.tx", k)})
				check("NICRx", []LinkID{n.NICRx(k)}, []string{ref.name("nic%d.rx", k)})
				for g := 0; g < spec.NumGPUs; g++ {
					check("GPU→NIC", n.AppendGPUToNICLinks(nil, g, k), ref.gpuToNIC(g, k))
					check("NIC→GPU", n.AppendNICToGPULinks(nil, k, g), ref.nicToGPU(k, g))
				}
			}
			for g := 0; g < spec.NumGPUs; g++ {
				check("GPU→host", n.AppendGPUToHostLinks(nil, g), ref.gpuToHost(g))
				check("host→GPU", n.AppendHostToGPULinks(nil, g), ref.hostToGPU(g))
				check("PCIeGPUUp", []LinkID{n.PCIeGPUUp(g)}, []string{ref.name("pcie.g%d.up", g)})
				check("PCIeGPUDown", []LinkID{n.PCIeGPUDown(g)}, []string{ref.name("pcie.g%d.down", g)})
				check("PCIeSwitchUp", []LinkID{n.PCIeSwitchUp(spec.PCIeGroup[g])}, []string{ref.name("pcie.sw%d.up", spec.PCIeGroup[g])})
				check("PCIeSwitchDown", []LinkID{n.PCIeSwitchDown(spec.PCIeGroup[g])}, []string{ref.name("pcie.sw%d.down", spec.PCIeGroup[g])})
				for h := 0; h < spec.NumGPUs; h++ {
					if g == h {
						continue
					}
					check("P2P", n.AppendPCIeP2PLinks(nil, g, h), ref.p2p(g, h))
					if spec.NVLinkBps(g, h) > 0 {
						check("NVLink pair", n.AppendNVLinkPathLinks(nil, []int{g, h}), ref.nvPair(g, h))
					}
				}
			}
			if !spec.Switched {
				for _, p := range n.NVLinkPaths(0, spec.NumGPUs-1, 3) {
					var want []string
					for i := 0; i+1 < len(p); i++ {
						want = append(want, ref.nvPair(p[i], p[i+1])...)
					}
					check(fmt.Sprintf("NVLink path %v", p), n.AppendNVLinkPathLinks(nil, p), want)
				}
			}
		}
	}
}

func TestLinkByNameRejectsUnknown(t *testing.T) {
	c := NewCluster(DGXV100(), 2)
	for _, name := range []string{"", "n0.nope", "n2.nic0.tx", "n01.nic0.tx", "n0.nic4.tx", "n0.nv.0>5", "n0.nvsw.g0.out", "n0.pcie.g0.up "} {
		if id, ok := c.LinkByName(name); ok {
			t.Errorf("LinkByName(%q) = %d, want no link", name, id)
		}
	}
}

func TestAbsentLinkPanics(t *testing.T) {
	n := NewCluster(DGXV100(), 1).Node(0)
	for what, fn := range map[string]func(){
		"NVLink without an edge":   func() { n.NVLinkTo(0, 5) },
		"NVSwitch port on a mesh":  func() { n.NVPortOut(0) },
		"NVLink to itself":         func() { n.NVLinkTo(2, 2) },
		"NIC past the node's NICs": func() { n.NICTx(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", what)
				}
			}()
			fn()
		}()
	}
}

func TestClusterLinksUniqueAndPositive(t *testing.T) {
	for _, spec := range []*Spec{DGXV100(), DGXA100(), QuadA10(), H800x8()} {
		c := NewCluster(spec, 2)
		seen := map[string]bool{}
		for id := LinkID(0); int(id) < c.NumLinks(); id++ {
			name := c.LinkName(id)
			if seen[name] {
				t.Errorf("%s: duplicate link %s", spec.Name, name)
			}
			seen[name] = true
			if b := c.LinkBps(id); b <= 0 {
				t.Errorf("%s: link %s has bandwidth %f", spec.Name, name, b)
			}
		}
	}
}

func TestGPUToHostPathSharesSwitchUplink(t *testing.T) {
	c := NewCluster(DGXV100(), 1)
	n := c.Node(0)
	p0 := n.AppendGPUToHostLinks(nil, 0)
	p1 := n.AppendGPUToHostLinks(nil, 1)
	if p0[1] != p1[1] {
		t.Errorf("GPUs 0 and 1 should share a switch uplink: %v vs %v", p0, p1)
	}
	p2 := n.AppendGPUToHostLinks(nil, 2)
	if p0[1] == p2[1] {
		t.Errorf("GPUs 0 and 2 should not share a switch uplink")
	}
}

func TestPCIeP2PPaths(t *testing.T) {
	c := NewCluster(QuadA10(), 1)
	n := c.Node(0)
	// Different switches: 4 links (two x16 + two uplinks).
	if p := n.AppendPCIeP2PLinks(nil, 0, 2); len(p) != 4 {
		t.Errorf("cross-switch P2P path = %v, want 4 links", p)
	}
	v := NewCluster(DGXV100(), 1).Node(0)
	// Same switch: 2 links, stays below the switch.
	if p := v.AppendPCIeP2PLinks(nil, 0, 1); len(p) != 2 {
		t.Errorf("same-switch P2P path = %v, want 2 links", p)
	}
}

func TestNVLinkPathEnumeration(t *testing.T) {
	n := NewCluster(DGXV100(), 1).Node(0)
	// Direct only.
	direct := n.NVLinkPaths(0, 3, 1)
	if len(direct) != 1 || len(direct[0]) != 2 {
		t.Fatalf("direct paths 0→3 = %v", direct)
	}
	// Two hops: several alternatives appear, all simple, sorted by length.
	two := n.NVLinkPaths(0, 3, 2)
	if len(two) <= 1 {
		t.Fatalf("expected multiple ≤2-hop paths 0→3, got %v", two)
	}
	if len(two[0]) != 2 {
		t.Errorf("paths not sorted by length: %v", two)
	}
	for _, p := range two {
		seen := map[int]bool{}
		for _, g := range p {
			if seen[g] {
				t.Errorf("path %v revisits GPU %d", p, g)
			}
			seen[g] = true
		}
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Errorf("path %v has wrong endpoints", p)
		}
		for i := 0; i+1 < len(p); i++ {
			if n.Spec.NVAdj[p[i]][p[i+1]] == 0 {
				t.Errorf("path %v uses missing edge %d-%d", p, p[i], p[i+1])
			}
		}
	}
	// Unconnected pair at 1 hop (0 and 5 have no direct link).
	if p := n.NVLinkPaths(0, 5, 1); len(p) != 0 {
		t.Errorf("paths 0→5 at 1 hop = %v, want none", p)
	}
	if p := n.NVLinkPaths(0, 5, 2); len(p) == 0 {
		t.Error("paths 0→5 at 2 hops should exist")
	}
}

func TestNVLinkPathsSwitched(t *testing.T) {
	n := NewCluster(DGXA100(), 1).Node(0)
	p := n.NVLinkPaths(2, 5, 3)
	if len(p) != 1 || len(p[0]) != 2 {
		t.Fatalf("switched fabric paths = %v, want single direct", p)
	}
	links := n.AppendNVLinkPathLinks(nil, p[0])
	if len(links) != 2 {
		t.Fatalf("switched path links = %v, want 2 ports", links)
	}
}

func TestPathBandwidth(t *testing.T) {
	n := NewCluster(DGXV100(), 1).Node(0)
	if b := n.PathBandwidth([]int{0, 3}); b != GBps(48) {
		t.Errorf("0→3 bandwidth = %.0f, want 48 GB/s", b)
	}
	// 0→1→3: bottleneck is min(24, 24).
	if b := n.PathBandwidth([]int{0, 1, 3}); b != GBps(24) {
		t.Errorf("0→1→3 bandwidth = %.0f, want 24 GB/s", b)
	}
	if b := n.PathBandwidth([]int{0, 5}); b != 0 {
		t.Errorf("0→5 bandwidth = %.0f, want 0", b)
	}
}

func TestGPUToNICPaths(t *testing.T) {
	v := NewCluster(DGXV100(), 1).Node(0)
	// Local NIC: 2 links (x16 + nic tx).
	if p := v.AppendGPUToNICLinks(nil, 0, 0); len(p) != 2 {
		t.Errorf("local NIC path = %v, want 2 links", p)
	}
	// Remote NIC: crosses the root complex.
	if p := v.AppendGPUToNICLinks(nil, 0, 3); len(p) != 4 {
		t.Errorf("remote NIC path = %v, want 4 links", p)
	}
	if p := v.AppendNICToGPULinks(nil, 0, 1); len(p) != 2 {
		t.Errorf("local NIC rx path = %v, want 2 links", p)
	}
}

func TestNVLinkPathsPropertySimpleAndConnected(t *testing.T) {
	n := NewCluster(DGXV100(), 1).Node(0)
	f := func(a, b uint8, hops uint8) bool {
		src := int(a) % 8
		dst := int(b) % 8
		if src == dst {
			return len(n.NVLinkPaths(src, dst, 3)) == 0
		}
		h := 1 + int(hops)%3
		for _, p := range n.NVLinkPaths(src, dst, h) {
			if len(p)-1 > h || p[0] != src || p[len(p)-1] != dst {
				return false
			}
			seen := map[int]bool{}
			for i, g := range p {
				if seen[g] {
					return false
				}
				seen[g] = true
				if i > 0 && n.Spec.NVAdj[p[i-1]][g] == 0 {
					return false
				}
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

func TestHasNVLink(t *testing.T) {
	if !DGXV100().HasNVLink() {
		t.Error("DGX-V100 should have NVLink")
	}
	if !DGXA100().HasNVLink() {
		t.Error("DGX-A100 should have NVLink")
	}
	if QuadA10().HasNVLink() {
		t.Error("QuadA10 should not have NVLink")
	}
}

func TestNVLinkPathsCached(t *testing.T) {
	n := NewCluster(DGXV100(), 1).Node(0)
	first := n.NVLinkPaths(0, 5, 3)
	second := n.NVLinkPaths(0, 5, 3)
	if len(first) != len(second) {
		t.Fatal("cached result differs")
	}
	// Cached slices are shared — identity check proves the memo hit.
	if len(first) > 0 && &first[0][0] != &second[0][0] {
		t.Error("second call did not hit the cache")
	}
}
