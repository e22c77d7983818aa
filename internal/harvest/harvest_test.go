package harvest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"grouter/internal/netsim"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// v100 returns a one-node DGX-V100 cluster's route table and its node.
func v100() (*Routes, *topology.Node) {
	cl := topology.NewCluster(topology.DGXV100(), 1)
	return NewRoutes(cl), cl.Node(0)
}

func TestGPUToHostOffSinglePath(t *testing.T) {
	rt, _ := v100()
	paths := rt.GPUToHostPaths(nil, 0, 1, ModeOff, nil)
	if len(paths) != 1 {
		t.Fatalf("ModeOff paths = %d, want 1", len(paths))
	}
}

func TestGPUToHostTopoAwareRules(t *testing.T) {
	rt, n := v100()
	paths := rt.GPUToHostPaths(nil, 0, 0, ModeTopoAware, nil)
	if len(paths) < 2 {
		t.Fatalf("topo-aware harvesting found %d paths, want > 1", len(paths))
	}
	// GPU 1 shares GPU 0's PCIe switch: no path may route through its x16
	// uplink (n0.pcie.g1.up).
	for _, p := range paths {
		for _, id := range p {
			if id == n.PCIeGPUUp(1) {
				t.Errorf("switch-sharing GPU 1 used as route: %v", p)
			}
		}
	}
	// At most one path per PCIe switch uplink.
	seen := map[topology.LinkID]int{}
	for _, p := range paths {
		for _, id := range p {
			if id == n.PCIeSwitchUp(0) || id == n.PCIeSwitchUp(1) ||
				id == n.PCIeSwitchUp(2) || id == n.PCIeSwitchUp(3) {
				seen[id]++
			}
		}
	}
	for id, c := range seen {
		if c > 1 {
			t.Errorf("switch uplink %s used by %d paths", id, c)
		}
	}
	// Route GPUs must be NVLink neighbors of 0 ({1,2,3,4} minus switch rules).
	for _, p := range paths[1:] {
		first := p[0]
		if first != n.NVLinkTo(0, 2) && first != n.NVLinkTo(0, 3) && first != n.NVLinkTo(0, 4) {
			t.Errorf("route path starts with %s, not an NVLink hop from 0", first)
		}
	}
}

func TestGPUToHostNaiveUsesUnlinkedPeers(t *testing.T) {
	rt, n := v100()
	paths := rt.GPUToHostPaths(nil, 0, 0, ModeNaive, nil)
	// Naive mode harvests every GPU: 8 paths (own + 7 peers).
	if len(paths) != 8 {
		t.Fatalf("naive paths = %d, want 8", len(paths))
	}
	// Some route path must cross GPU 0's own PCIe link twice-ish — i.e. a
	// PCIe P2P prefix (0 has no NVLink to 5, 6, 7).
	doubled := false
	for _, p := range paths[1:] {
		if p[0] == n.PCIeGPUUp(0) {
			doubled = true
		}
	}
	if !doubled {
		t.Error("naive harvesting should drag data over the source's own PCIe for unlinked peers")
	}
}

func TestHostToGPUMirrors(t *testing.T) {
	rt, n := v100()
	up := rt.GPUToHostPaths(nil, 0, 2, ModeTopoAware, nil)
	down := rt.HostToGPUPaths(nil, 0, 2, ModeTopoAware, nil)
	if len(up) != len(down) {
		t.Errorf("up %d paths vs down %d paths", len(up), len(down))
	}
	// Down paths end with an NVLink hop into GPU 2 (routes) or GPU 2's x16.
	for _, p := range down {
		last := p[len(p)-1]
		if last != n.PCIeGPUDown(2) && last != n.NVLinkTo(0, 2) && last != n.NVLinkTo(1, 2) &&
			last != n.NVLinkTo(3, 2) && last != n.NVLinkTo(6, 2) {
			t.Errorf("down path ends with %s", last)
		}
	}
}

func TestBusyLinksExcluded(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cl := topology.NewCluster(topology.DGXV100(), 1)
	n := cl.Node(0)
	net := netsim.New(e, cl.Links())
	rt := NewRoutes(cl)
	free := rt.GPUToHostPaths(nil, 0, 0, ModeTopoAware, net)
	// Saturate GPU 2's switch uplink (switch 1).
	e.Go("hog", func(p *sim.Proc) {
		net.Start("hog", []topology.LinkID{n.PCIeSwitchUp(1)}, 1e12, netsim.Options{})
		p.Sleep(time.Millisecond)
		busy := rt.GPUToHostPaths(nil, 0, 0, ModeTopoAware, net)
		if len(busy) >= len(free) {
			t.Errorf("busy uplink not excluded: %d paths vs %d when idle", len(busy), len(free))
		}
	})
	e.Run(10 * time.Millisecond)
}

func TestCrossNodeSingleVsMultiNIC(t *testing.T) {
	cl := topology.NewCluster(topology.DGXV100(), 2)
	a := cl.Node(0)
	rt := NewRoutes(cl)
	single := rt.CrossNodePaths(nil, 0, 0, 1, 0, ModeOff, nil)
	if len(single) != 1 {
		t.Fatalf("ModeOff cross-node paths = %d, want 1", len(single))
	}
	multi := rt.CrossNodePaths(nil, 0, 0, 1, 0, ModeTopoAware, nil)
	if len(multi) < 2 {
		t.Fatalf("multi-NIC paths = %d, want several", len(multi))
	}
	// Each path must use a distinct NIC tx.
	seen := map[topology.LinkID]bool{}
	for _, p := range multi {
		for _, id := range p {
			for k := 0; k < 4; k++ {
				if id == a.NICTx(k) {
					if seen[id] {
						t.Errorf("NIC %s reused", id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestCrossNodeH800UsesEightNICs(t *testing.T) {
	cl := topology.NewCluster(topology.H800x8(), 2)
	paths := NewRoutes(cl).CrossNodePaths(nil, 0, 0, 1, 0, ModeTopoAware, nil)
	if len(paths) != 8 {
		t.Errorf("H800 multi-NIC paths = %d, want 8", len(paths))
	}
}

func TestOptionsRateFloor(t *testing.T) {
	opt := Options(100<<20, 100*time.Millisecond, 60*time.Millisecond)
	// 100 MiB over 40ms slack → ≥ 2.6 GB/s.
	want := float64(100<<20) / 0.04
	if opt.MinRate < want*0.99 || opt.MinRate > want*1.01 {
		t.Errorf("MinRate = %.0f, want %.0f", opt.MinRate, want)
	}
	if opt.Priority <= 0 {
		t.Errorf("Priority = %d, want > 0 for 40ms slack", opt.Priority)
	}
	if got := Options(100, 0, 0); got.MinRate != 0 || got.Priority != 0 {
		t.Errorf("no-SLO options = %+v, want zero", got)
	}
	// Compute already spent the SLO: the budget clamps to 1 ms, asking for
	// the payload within a millisecond.
	exhausted := Options(1<<20, 10*time.Millisecond, 20*time.Millisecond)
	if want := float64(1<<20) / 0.001; exhausted.MinRate < want*0.99 || exhausted.MinRate > want*1.01 {
		t.Errorf("exhausted-budget MinRate = %.0f, want %.0f", exhausted.MinRate, want)
	}
}

func TestPriorityMonotone(t *testing.T) {
	slacks := []time.Duration{2 * time.Second, 500 * time.Millisecond, 50 * time.Millisecond, 5 * time.Millisecond, 0}
	prev := -1
	for _, s := range slacks {
		pr := Priority(s)
		if pr < prev {
			t.Errorf("Priority(%v) = %d not monotone (prev %d)", s, pr, prev)
		}
		prev = pr
	}
	if Priority(time.Minute) != 0 {
		t.Errorf("huge slack priority = %d, want 0", Priority(time.Minute))
	}
}

// refGPUToHostPaths is the uncached builder Routes.GPUToHostPaths replaced:
// it enumerates and joins every candidate route again on each call. It is
// the reference the route oracle compares against.
func refGPUToHostPaths(node *topology.Node, g int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	if mode == ModeOff {
		return [][]topology.LinkID{node.GPUToHostLinks(g)}
	}
	spec := node.Spec
	paths := make([][]topology.LinkID, 1, spec.NumGPUs)
	paths[0] = node.GPUToHostLinks(g)
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for r := 0; r < spec.NumGPUs; r++ {
		if r == g {
			continue
		}
		linked := spec.NVLinkBps(g, r) > 0
		switch mode {
		case ModeTopoAware:
			if !linked {
				continue // no NVLink: borrowing would double-cross g's PCIe
			}
			if usedSwitch.has(spec.PCIeGroup[r]) {
				continue // switch already contributes one uplink
			}
			uplink := node.PCIeSwitchUp(spec.PCIeGroup[r])
			if !idleIn(net, uplink) || !idleIn(net, node.PCIeGPUUp(r)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[r])
			paths = append(paths, joinLinks(node.NVLinkPairLinks(g, r), node.GPUToHostLinks(r)))
		case ModeNaive:
			// DeepPlan-style: any peer, reached over NVLink when present and
			// over PCIe peer-to-peer when not (congesting g's own link).
			var path []topology.LinkID
			if linked {
				path = joinLinks(node.NVLinkPairLinks(g, r), node.GPUToHostLinks(r))
			} else {
				path = joinLinks(node.PCIeP2PLinks(g, r), node.GPUToHostLinks(r))
			}
			paths = append(paths, path)
		}
	}
	return paths
}

// refHostToGPUPaths is the uncached reference for Routes.HostToGPUPaths.
func refHostToGPUPaths(node *topology.Node, g int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	if mode == ModeOff {
		return [][]topology.LinkID{node.HostToGPULinks(g)}
	}
	spec := node.Spec
	paths := make([][]topology.LinkID, 1, spec.NumGPUs)
	paths[0] = node.HostToGPULinks(g)
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for r := 0; r < spec.NumGPUs; r++ {
		if r == g {
			continue
		}
		linked := spec.NVLinkBps(r, g) > 0
		switch mode {
		case ModeTopoAware:
			if !linked || usedSwitch.has(spec.PCIeGroup[r]) {
				continue
			}
			downlink := node.PCIeSwitchDown(spec.PCIeGroup[r])
			if !idleIn(net, downlink) || !idleIn(net, node.PCIeGPUDown(r)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[r])
			paths = append(paths, joinLinks(node.HostToGPULinks(r), node.NVLinkPairLinks(r, g)))
		case ModeNaive:
			var path []topology.LinkID
			if linked {
				path = joinLinks(node.HostToGPULinks(r), node.NVLinkPairLinks(r, g))
			} else {
				path = joinLinks(node.HostToGPULinks(r), node.PCIeP2PLinks(r, g))
			}
			paths = append(paths, path)
		}
	}
	return paths
}

// refCrossNodePaths is the uncached reference for Routes.CrossNodePaths.
func refCrossNodePaths(src *topology.Node, sg int, dst *topology.Node, dg int, mode Mode, net *netsim.Network) [][]topology.LinkID {
	spec := src.Spec
	own := directNICPath(src, sg, dst, dg)
	if mode == ModeOff {
		return [][]topology.LinkID{own}
	}
	paths := make([][]topology.LinkID, 1, spec.NumGPUs)
	paths[0] = own
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
		linked := spec.NVLinkBps(sg, r) > 0
		if mode == ModeTopoAware {
			if !linked {
				continue
			}
			if !idleIn(net, src.NICTx(nic)) {
				continue
			}
		}
		// Pick the landing GPU: prefer the same index (NUMA-aligned with
		// the NIC) when it has NVLink to dg, otherwise any unused NVLink
		// neighbor of dg.
		landing := -1
		if r < dst.Spec.NumGPUs && !usedLanding.has(r) &&
			(r == dg || dst.Spec.NVLinkBps(r, dg) > 0) {
			landing = r
		} else if mode == ModeTopoAware {
			for _, cand := range dst.Spec.NVNeighbors(dg) {
				if !usedLanding.has(cand) {
					landing = cand
					break
				}
			}
		} else if r < dst.Spec.NumGPUs {
			landing = r // naive mode lands same-index regardless
		}
		if landing < 0 {
			continue
		}
		usedNIC.add(nic)
		usedLanding.add(landing)
		var hop []topology.LinkID
		if linked {
			hop = src.NVLinkPairLinks(sg, r)
		} else {
			hop = src.PCIeP2PLinks(sg, r)
		}
		var final []topology.LinkID
		if landing != dg {
			if dst.Spec.NVLinkBps(landing, dg) > 0 {
				final = dst.NVLinkPairLinks(landing, dg)
			} else {
				final = dst.PCIeP2PLinks(landing, dg)
			}
		}
		paths = append(paths, joinLinks(hop, src.GPUToNICLinks(r, nic), dst.NICToGPULinks(nic, landing), final))
	}
	return paths
}

// gatingLinks lists the links the idle filter reads: every NIC Tx, and
// every PCIe switch and GPU link in both directions.
func gatingLinks(cl *topology.Cluster) []topology.LinkID {
	var out []topology.LinkID
	spec := cl.Spec
	for _, n := range cl.Nodes {
		for k := 0; k < spec.NICCount; k++ {
			out = append(out, n.NICTx(k))
		}
		seen := map[int]bool{}
		for g := 0; g < spec.NumGPUs; g++ {
			out = append(out, n.PCIeGPUUp(g), n.PCIeGPUDown(g))
			if sw := spec.PCIeGroup[g]; !seen[sw] {
				seen[sw] = true
				out = append(out, n.PCIeSwitchUp(sw), n.PCIeSwitchDown(sw))
			}
		}
	}
	return out
}

// TestRoutesMatchReference is the route oracle: on every builtin topology,
// in every mode, for every (source, destination) GPU pair between every
// ordered pair of three nodes, the shared route table returns exactly what
// the uncached reference builders return. Each seed loads a random set of gating links with real
// flows — some past the 80% idle threshold, some below it — so the idle
// filter's verdicts vary while the memo stays warm across seeds.
func TestRoutesMatchReference(t *testing.T) {
	for _, name := range []string{"dgx-v100", "dgx-a100", "h800x8", "quad-a10"} {
		spec := topology.SpecByName(name)
		cl := topology.NewCluster(spec, 3)
		rt := NewRoutes(cl)
		gating := gatingLinks(cl)
		var buf [][]topology.LinkID
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := sim.NewEngine()
			net := netsim.New(e, cl.Links())
			for _, id := range gating {
				if rng.Intn(3) == 0 {
					frac := 0.5 + 0.5*rng.Float64()
					net.Start("load", []topology.LinkID{id}, 1e15, netsim.Options{MaxRate: frac * net.Capacity(id)})
				}
			}
			e.Run(time.Millisecond) // let the allocator rate the load
			busy := 0
			for _, id := range gating {
				if net.AllocatedOn(id) >= 0.8*net.Capacity(id) {
					busy++
				}
			}
			if seed > 0 && busy == 0 {
				t.Fatalf("%s seed %d: no gating link loaded past 80%%", name, seed)
			}
			if seed == 0 {
				net = nil // the unfiltered case
			}
			check := func(what string, got, want [][]topology.LinkID) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d %s:\n got %v\nwant %v", name, seed, what, got, want)
				}
			}
			for _, mode := range []Mode{ModeOff, ModeNaive, ModeTopoAware} {
				for n := range cl.Nodes {
					node := cl.Node(n)
					for g := 0; g < spec.NumGPUs; g++ {
						buf = rt.GPUToHostPaths(buf, n, g, mode, net)
						check(fmt.Sprintf("up n%d g%d mode %d", n, g, mode), buf, refGPUToHostPaths(node, g, mode, net))
						buf = rt.HostToGPUPaths(buf, n, g, mode, net)
						check(fmt.Sprintf("down n%d g%d mode %d", n, g, mode), buf, refHostToGPUPaths(node, g, mode, net))
					}
				}
				for src := range cl.Nodes {
					for dst := range cl.Nodes {
						if src == dst {
							continue
						}
						for sg := 0; sg < spec.NumGPUs; sg++ {
							for dg := 0; dg < spec.NumGPUs; dg++ {
								buf = rt.CrossNodePaths(buf, src, sg, dst, dg, mode, net)
								want := refCrossNodePaths(cl.Node(src), sg, cl.Node(dst), dg, mode, net)
								check(fmt.Sprintf("cross n%d.g%d→n%d.g%d mode %d", src, sg, dst, dg, mode), buf, want)
							}
						}
					}
				}
			}
			e.Close()
		}
	}
}

// TestRoutesSteadyStateAllocFree pins the point of the shared table: once a
// route is built, asking for it again allocates nothing.
func TestRoutesSteadyStateAllocFree(t *testing.T) {
	cl := topology.NewCluster(topology.DGXV100(), 2)
	rt := NewRoutes(cl)
	e := sim.NewEngine()
	defer e.Close()
	net := netsim.New(e, cl.Links())
	buf := make([][]topology.LinkID, 0, 8)
	call := func() {
		buf = rt.GPUToHostPaths(buf, 0, 3, ModeTopoAware, net)
		buf = rt.HostToGPUPaths(buf, 1, 5, ModeNaive, net)
		buf = rt.CrossNodePaths(buf, 1, 2, 0, 6, ModeTopoAware, net)
	}
	call()
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Errorf("warm route lookups allocate %.1f times per call, want 0", n)
	}
}
