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
			t.Errorf("switch uplink %d used by %d paths", id, c)
		}
	}
	// Route GPUs must be NVLink neighbors of 0 ({1,2,3,4} minus switch rules).
	for _, p := range paths[1:] {
		first := p[0]
		if first != n.NVLinkTo(0, 2) && first != n.NVLinkTo(0, 3) && first != n.NVLinkTo(0, 4) {
			t.Errorf("route path starts with %d, not an NVLink hop from 0", first)
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
			t.Errorf("down path ends with %d", last)
		}
	}
}

func TestBusyLinksExcluded(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cl := topology.NewCluster(topology.DGXV100(), 1)
	n := cl.Node(0)
	net := netsim.New(e, cl)
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
						t.Errorf("NIC %d reused", id)
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
	opt := Options(100<<20, Slack(100*time.Millisecond, 60*time.Millisecond))
	// 100 MiB over 40ms slack → ≥ 2.6 GB/s.
	want := float64(100<<20) / 0.04
	if opt.MinRate < want*0.99 || opt.MinRate > want*1.01 {
		t.Errorf("MinRate = %.0f, want %.0f", opt.MinRate, want)
	}
	if opt.Priority <= 0 {
		t.Errorf("Priority = %d, want > 0 for 40ms slack", opt.Priority)
	}
	if got := Options(100, Slack(0, 0)); got.MinRate != 0 || got.Priority != 0 {
		t.Errorf("no-SLO options = %+v, want zero", got)
	}
	// Compute already spent the SLO: the budget clamps to 1 ms, asking for
	// the payload within a millisecond.
	exhausted := Options(1<<20, Slack(10*time.Millisecond, 20*time.Millisecond))
	if want := float64(1<<20) / 0.001; exhausted.MinRate < want*0.99 || exhausted.MinRate > want*1.01 {
		t.Errorf("exhausted-budget MinRate = %.0f, want %.0f", exhausted.MinRate, want)
	}
}

func TestSlack(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct{ slo, infer, want time.Duration }{
		{0, 0, 0},
		{0, 5 * ms, 0}, // no objective, whatever the compute
		{-ms, 0, 0},    // a negative objective is no objective
		{100 * ms, 60 * ms, 40 * ms},
		{100 * ms, 0, 100 * ms},
		{10 * ms, 10 * ms, ms}, // compute spends the objective exactly
		{10 * ms, 20 * ms, ms}, // compute overruns it
		{ms + 500*time.Microsecond, ms, 500 * time.Microsecond}, // a positive budget is kept, even below 1 ms
	} {
		if got := Slack(c.slo, c.infer); got != c.want {
			t.Errorf("Slack(%v, %v) = %v, want %v", c.slo, c.infer, got, c.want)
		}
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

// refRoutes builds routes the way the route table's uncached predecessor
// did, from link names formatted as the topology named links before they
// had handles. It is the reference the route oracle compares against; the
// idle filter resolves each name it asks about.
type refRoutes struct {
	spec   *topology.Spec
	byName map[string]topology.LinkID
	net    *netsim.Network
}

func newRefRoutes(cl *topology.Cluster) *refRoutes {
	r := &refRoutes{spec: cl.Spec, byName: map[string]topology.LinkID{}}
	for id := topology.LinkID(0); int(id) < cl.NumLinks(); id++ {
		r.byName[cl.LinkName(id)] = id
	}
	return r
}

func (r *refRoutes) idle(name string) bool {
	id, ok := r.byName[name]
	if !ok {
		panic("reference route names unknown link " + name)
	}
	return idleIn(r.net, id)
}

func name(n int, format string, a ...any) string {
	return fmt.Sprintf("n%d.", n) + fmt.Sprintf(format, a...)
}

func (r *refRoutes) gpuToHost(n, g int) []string {
	return []string{name(n, "pcie.g%d.up", g), name(n, "pcie.sw%d.up", r.spec.PCIeGroup[g])}
}

func (r *refRoutes) hostToGPU(n, g int) []string {
	return []string{name(n, "pcie.sw%d.down", r.spec.PCIeGroup[g]), name(n, "pcie.g%d.down", g)}
}

func (r *refRoutes) p2p(n, i, j int) []string {
	si, sj := r.spec.PCIeGroup[i], r.spec.PCIeGroup[j]
	if si == sj {
		return []string{name(n, "pcie.g%d.up", i), name(n, "pcie.g%d.down", j)}
	}
	return []string{name(n, "pcie.g%d.up", i), name(n, "pcie.sw%d.up", si), name(n, "pcie.sw%d.down", sj), name(n, "pcie.g%d.down", j)}
}

func (r *refRoutes) nvPair(n, a, b int) []string {
	if r.spec.Switched {
		return []string{name(n, "nvsw.g%d.out", a), name(n, "nvsw.g%d.in", b)}
	}
	return []string{name(n, "nv.%d>%d", a, b)}
}

func (r *refRoutes) gpuToNIC(n, g, k int) []string {
	sg, sk := r.spec.PCIeGroup[g], r.spec.NICGroup[k]
	if sg == sk {
		return []string{name(n, "pcie.g%d.up", g), name(n, "nic%d.tx", k)}
	}
	return []string{name(n, "pcie.g%d.up", g), name(n, "pcie.sw%d.up", sg), name(n, "pcie.sw%d.down", sk), name(n, "nic%d.tx", k)}
}

func (r *refRoutes) nicToGPU(n, k, g int) []string {
	sk, sg := r.spec.NICGroup[k], r.spec.PCIeGroup[g]
	if sk == sg {
		return []string{name(n, "nic%d.rx", k), name(n, "pcie.g%d.down", g)}
	}
	return []string{name(n, "nic%d.rx", k), name(n, "pcie.sw%d.up", sk), name(n, "pcie.sw%d.down", sg), name(n, "pcie.g%d.down", g)}
}

func join(segs ...[]string) []string {
	var out []string
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// gpuToHostPaths is the uncached reference for Routes.GPUToHostPaths.
func (r *refRoutes) gpuToHostPaths(n, g int, mode Mode) [][]string {
	if mode == ModeOff {
		return [][]string{r.gpuToHost(n, g)}
	}
	spec := r.spec
	paths := [][]string{r.gpuToHost(n, g)}
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for rt := 0; rt < spec.NumGPUs; rt++ {
		if rt == g {
			continue
		}
		linked := spec.NVLinkBps(g, rt) > 0
		switch mode {
		case ModeTopoAware:
			if !linked {
				continue // no NVLink: borrowing would double-cross g's PCIe
			}
			if usedSwitch.has(spec.PCIeGroup[rt]) {
				continue // switch already contributes one uplink
			}
			if !r.idle(name(n, "pcie.sw%d.up", spec.PCIeGroup[rt])) || !r.idle(name(n, "pcie.g%d.up", rt)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[rt])
			paths = append(paths, join(r.nvPair(n, g, rt), r.gpuToHost(n, rt)))
		case ModeNaive:
			// DeepPlan-style: any peer, reached over NVLink when present and
			// over PCIe peer-to-peer when not (congesting g's own link).
			if linked {
				paths = append(paths, join(r.nvPair(n, g, rt), r.gpuToHost(n, rt)))
			} else {
				paths = append(paths, join(r.p2p(n, g, rt), r.gpuToHost(n, rt)))
			}
		}
	}
	return paths
}

// hostToGPUPaths is the uncached reference for Routes.HostToGPUPaths.
func (r *refRoutes) hostToGPUPaths(n, g int, mode Mode) [][]string {
	if mode == ModeOff {
		return [][]string{r.hostToGPU(n, g)}
	}
	spec := r.spec
	paths := [][]string{r.hostToGPU(n, g)}
	var usedSwitch switchSet
	usedSwitch.add(spec.PCIeGroup[g])
	for rt := 0; rt < spec.NumGPUs; rt++ {
		if rt == g {
			continue
		}
		linked := spec.NVLinkBps(rt, g) > 0
		switch mode {
		case ModeTopoAware:
			if !linked || usedSwitch.has(spec.PCIeGroup[rt]) {
				continue
			}
			if !r.idle(name(n, "pcie.sw%d.down", spec.PCIeGroup[rt])) || !r.idle(name(n, "pcie.g%d.down", rt)) {
				continue
			}
			usedSwitch.add(spec.PCIeGroup[rt])
			paths = append(paths, join(r.hostToGPU(n, rt), r.nvPair(n, rt, g)))
		case ModeNaive:
			if linked {
				paths = append(paths, join(r.hostToGPU(n, rt), r.nvPair(n, rt, g)))
			} else {
				paths = append(paths, join(r.hostToGPU(n, rt), r.p2p(n, rt, g)))
			}
		}
	}
	return paths
}

// crossNodePaths is the uncached reference for Routes.CrossNodePaths.
func (r *refRoutes) crossNodePaths(src, sg, dst, dg int, mode Mode) [][]string {
	spec := r.spec
	nic := spec.GPUNIC[sg]
	rnic := nic
	if rnic >= spec.NICCount {
		rnic = spec.NICCount - 1
	}
	own := join(r.gpuToNIC(src, sg, nic), r.nicToGPU(dst, rnic, dg))
	if mode == ModeOff {
		return [][]string{own}
	}
	paths := [][]string{own}
	var usedNIC switchSet
	usedNIC.add(spec.GPUNIC[sg])
	// Landing GPUs receive a chunk stream through their own PCIe x16 and
	// forward it to dg over NVLink, so each landing must be distinct or the
	// aggregation collapses onto one link (Fig. 9a aggregates "on the
	// destination GPU via NVLink" from distinct peers).
	var usedLanding switchSet
	usedLanding.add(dg)
	for rt := 0; rt < spec.NumGPUs; rt++ {
		if rt == sg {
			continue
		}
		nic := spec.GPUNIC[rt]
		if usedNIC.has(nic) {
			continue
		}
		linked := spec.NVLinkBps(sg, rt) > 0
		if mode == ModeTopoAware {
			if !linked {
				continue
			}
			if !r.idle(name(src, "nic%d.tx", nic)) {
				continue
			}
		}
		// Pick the landing GPU: prefer the same index (NUMA-aligned with
		// the NIC) when it has NVLink to dg, otherwise any unused NVLink
		// neighbor of dg.
		landing := -1
		if rt < spec.NumGPUs && !usedLanding.has(rt) &&
			(rt == dg || spec.NVLinkBps(rt, dg) > 0) {
			landing = rt
		} else if mode == ModeTopoAware {
			for _, cand := range spec.NVNeighbors(dg) {
				if !usedLanding.has(cand) {
					landing = cand
					break
				}
			}
		} else if rt < spec.NumGPUs {
			landing = rt // naive mode lands same-index regardless
		}
		if landing < 0 {
			continue
		}
		usedNIC.add(nic)
		usedLanding.add(landing)
		hop := r.p2p(src, sg, rt)
		if linked {
			hop = r.nvPair(src, sg, rt)
		}
		var final []string
		if landing != dg {
			if spec.NVLinkBps(landing, dg) > 0 {
				final = r.nvPair(dst, landing, dg)
			} else {
				final = r.p2p(dst, landing, dg)
			}
		}
		paths = append(paths, join(hop, r.gpuToNIC(src, rt, nic), r.nicToGPU(dst, nic, landing), final))
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
// ordered pair of three nodes, the shared route table returns, by name,
// exactly what the uncached reference builders return. Each seed loads a
// random set of gating links with real flows — some past the 80% idle
// threshold, some below it — so the idle filter's verdicts vary while the
// memo stays warm across seeds.
func TestRoutesMatchReference(t *testing.T) {
	for _, spec := range []*topology.Spec{topology.DGXV100(), topology.DGXA100(), topology.H800x8(), topology.QuadA10()} {
		cl := topology.NewCluster(spec, 3)
		rt := NewRoutes(cl)
		ref := newRefRoutes(cl)
		gating := gatingLinks(cl)
		var buf [][]topology.LinkID
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := sim.NewEngine()
			net := netsim.New(e, cl)
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
				t.Fatalf("%s seed %d: no gating link loaded past 80%%", spec.Name, seed)
			}
			if seed == 0 {
				net = nil // the unfiltered case
			}
			ref.net = net
			check := func(what string, got [][]topology.LinkID, want [][]string) {
				t.Helper()
				var names [][]string
				for _, p := range got {
					var path []string
					for _, id := range p {
						path = append(path, cl.LinkName(id))
					}
					names = append(names, path)
				}
				if !reflect.DeepEqual(names, want) {
					t.Fatalf("%s seed %d %s:\n got %v\nwant %v", spec.Name, seed, what, names, want)
				}
			}
			for _, mode := range []Mode{ModeOff, ModeNaive, ModeTopoAware} {
				for n := range cl.Nodes {
					for g := 0; g < spec.NumGPUs; g++ {
						buf = rt.GPUToHostPaths(buf, n, g, mode, net)
						check(fmt.Sprintf("up n%d g%d mode %d", n, g, mode), buf, ref.gpuToHostPaths(n, g, mode))
						buf = rt.HostToGPUPaths(buf, n, g, mode, net)
						check(fmt.Sprintf("down n%d g%d mode %d", n, g, mode), buf, ref.hostToGPUPaths(n, g, mode))
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
								want := ref.crossNodePaths(src, sg, dst, dg, mode)
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
	net := netsim.New(e, cl)
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
