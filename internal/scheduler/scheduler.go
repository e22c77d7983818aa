// Package scheduler places workflow function instances onto cluster GPUs.
// Placement follows MAPA (§5): communicating GPU-function pairs are
// assigned, heaviest data edge first, to GPU pairs with the best NVLink
// connectivity, balancing instance load across devices.
package scheduler

import (
	"fmt"
	"math"
	"sort"

	"grouter/internal/fabric"
	"grouter/internal/obs"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// StageInst identifies one replica of one stage.
type StageInst struct {
	Stage   string
	Replica int
}

func (si StageInst) String() string { return fmt.Sprintf("%s#%d", si.Stage, si.Replica) }

// Placement maps stage instances to physical locations.
type Placement map[StageInst]fabric.Location

// Options tune one Place call.
type Options struct {
	// Node pins the app to a node; -1 picks the least-loaded node.
	Node int
	// SplitAcrossNodes distributes consecutive GPU stages over all nodes
	// (the "functions distributed across nodes" setting of Fig. 13/15).
	SplitAcrossNodes bool
	// Seed does not affect placement, which is deterministic. cluster.Deploy
	// reads it as the seed of the app's probabilistic-stage skips.
	Seed int64
}

// Placer assigns locations and tracks accumulated load for balancing across
// multiple deployed apps.
type Placer struct {
	cluster *topology.Cluster
	load    [][]int // [node][gpu] assigned instance count
	// Trace, when non-nil, records placement decisions as trace events. The
	// placer has no engine reference of its own, so the owning cluster wires
	// the tracer in explicitly.
	Trace *obs.Tracer
}

// NewPlacer builds a placer over the cluster.
func NewPlacer(c *topology.Cluster) *Placer {
	p := &Placer{cluster: c}
	for range c.Nodes {
		p.load = append(p.load, make([]int, c.Spec.NumGPUs))
	}
	return p
}

// nodeLoad sums a node's GPU load.
func (p *Placer) nodeLoad(n int) int {
	t := 0
	for _, l := range p.load[n] {
		t += l
	}
	return t
}

// leastLoadedNode picks the node with minimum load (lowest index on ties).
func (p *Placer) leastLoadedNode() int {
	best := 0
	for n := 1; n < len(p.load); n++ {
		if p.nodeLoad(n) < p.nodeLoad(best) {
			best = n
		}
	}
	return best
}

// leastLoadedGPU picks a GPU on node n (lowest index on ties), optionally
// restricted to a candidate set.
func (p *Placer) leastLoadedGPU(n int, among []int) int {
	if among == nil {
		among = make([]int, p.cluster.Spec.NumGPUs)
		for i := range among {
			among[i] = i
		}
	}
	best := among[0]
	for _, g := range among[1:] {
		if p.load[n][g] < p.load[n][best] {
			best = g
		}
	}
	return best
}

// Place assigns every stage instance of wf a location.
func (p *Placer) Place(wf *workflow.Workflow, opt Options) Placement {
	out := Placement{}
	node := opt.Node
	if node < 0 {
		node = p.leastLoadedNode()
	}

	// cFns run on their node's host.
	var gpuInsts []StageInst
	instNode := map[StageInst]int{}
	nodeCursor := node
	for _, s := range wf.Stages {
		for r := 0; r < s.ReplicaCount(); r++ {
			si := StageInst{Stage: s.Name, Replica: r}
			n := node
			if opt.SplitAcrossNodes && len(p.load) > 1 {
				n = nodeCursor
				nodeCursor = (nodeCursor + 1) % len(p.load)
			}
			instNode[si] = n
			if !s.IsGPU() {
				out[si] = fabric.Location{Node: n, GPU: fabric.HostGPU}
				continue
			}
			gpuInsts = append(gpuInsts, si)
		}
	}

	p.placeMAPA(wf, gpuInsts, instNode, out)
	if p.Trace != nil {
		// Walk the stage list (not the placement map) so the emitted
		// decision order is deterministic.
		span := p.Trace.BeginOn(obs.TrackSched, obs.CatPlace, "place:"+wf.Name)
		for _, s := range wf.Stages {
			for r := 0; r < s.ReplicaCount(); r++ {
				si := StageInst{Stage: s.Name, Replica: r}
				loc, ok := out[si]
				if !ok {
					continue
				}
				ev := p.Trace.InstantOn(obs.TrackSched, obs.CatPlace, si.String())
				p.Trace.SetAttrInt(ev, "node", int64(loc.Node))
				p.Trace.SetAttrInt(ev, "gpu", int64(loc.GPU))
			}
		}
		p.Trace.End(span)
	}
	return out
}

// PlaceSingleFit provisions one additional GPU instance, preferring the home
// node: the least-loaded GPU there whose reported free memory covers need.
// When no home GPU fits, other nodes are scanned in ascending-load order
// (hierarchical control plane: local decision first, cross-node fallback
// under saturation), and when no GPU anywhere fits it falls back to the home
// node's least-loaded GPU — provisioning never fails outright, it just lands
// on the least-bad device. A nil free func (or need <= 0) skips the memory
// check entirely: the pick is the home node's least-loaded GPU.
func (p *Placer) PlaceSingleFit(home int, need int64, free func(fabric.Location) int64) fabric.Location {
	pick := func(n int) (int, bool) {
		best, ok := -1, false
		for g := 0; g < p.cluster.Spec.NumGPUs; g++ {
			if need > 0 && free != nil && free(fabric.Location{Node: n, GPU: g}) < need {
				continue
			}
			if !ok || p.load[n][g] < p.load[n][best] {
				best, ok = g, true
			}
		}
		return best, ok
	}
	node, g, ok := home, -1, false
	if g, ok = pick(home); !ok {
		// Home node saturated: try the remaining nodes, least loaded first
		// (lowest index on ties), so replicas spread instead of piling onto
		// one overflow node.
		order := make([]int, 0, len(p.load)-1)
		for n := range p.load {
			if n != home {
				order = append(order, n)
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return p.nodeLoad(order[a]) < p.nodeLoad(order[b]) })
		for _, n := range order {
			if g, ok = pick(n); ok {
				node = n
				break
			}
		}
	}
	if !ok {
		node, g = home, p.leastLoadedGPU(home, nil)
	}
	p.load[node][g]++
	if p.Trace != nil {
		ev := p.Trace.InstantOn(obs.TrackSched, obs.CatPlace, "scale-up")
		p.Trace.SetAttrInt(ev, "node", int64(node))
		p.Trace.SetAttrInt(ev, "gpu", int64(g))
		p.Trace.SetAttrInt(ev, "home", int64(home))
	}
	return fabric.Location{Node: node, GPU: g}
}

// Unplace releases one assigned instance's load share (the elastic pool
// layer calls it when a drained replica is torn down, so the placer's
// balancing state tracks the live fleet, not its high-water mark).
func (p *Placer) Unplace(loc fabric.Location) {
	if loc.IsHost() {
		return
	}
	if p.load[loc.Node][loc.GPU] > 0 {
		p.load[loc.Node][loc.GPU]--
	}
}

// edge is one producer→consumer instance pair with its data volume.
type edge struct {
	from, to StageInst
	bytes    int64
}

// instanceEdges expands the stage DAG into instance-level edges (pairwise
// for equal replica counts, broadcast/fan-in otherwise).
func instanceEdges(wf *workflow.Workflow) []edge {
	var out []edge
	for _, s := range wf.Stages {
		for _, dn := range s.Deps {
			d := wf.Stage(dn)
			bytes := workflow.EdgeBytes(d, wf.Batch)
			sr, dr := s.ReplicaCount(), d.ReplicaCount()
			if sr == dr && sr > 1 {
				for r := 0; r < sr; r++ {
					out = append(out, edge{from: StageInst{dn, r}, to: StageInst{s.Name, r}, bytes: bytes})
				}
				continue
			}
			for i := 0; i < dr; i++ {
				for j := 0; j < sr; j++ {
					out = append(out, edge{from: StageInst{dn, i}, to: StageInst{s.Name, j}, bytes: bytes})
				}
			}
		}
	}
	// Heaviest first; deterministic tie-break.
	sort.SliceStable(out, func(i, j int) bool { return out[i].bytes > out[j].bytes })
	return out
}

// placeMAPA greedily co-locates heavy-edge pairs on well-connected GPUs.
func (p *Placer) placeMAPA(wf *workflow.Workflow, gpuInsts []StageInst,
	instNode map[StageInst]int, out Placement) {

	isGPUInst := map[StageInst]bool{}
	for _, si := range gpuInsts {
		isGPUInst[si] = true
	}
	spec := p.cluster.Spec

	// bestPeer returns the GPU with the strongest NVLink to g, least loaded.
	bestPeer := func(n, g int) int {
		best, bestScore := (g+1)%spec.NumGPUs, math.Inf(-1)
		for cand := 0; cand < spec.NumGPUs; cand++ {
			if cand == g {
				continue
			}
			score := spec.NVLinkBps(g, cand) - float64(p.load[n][cand])*1e9
			if score > bestScore {
				best, bestScore = cand, score
			}
		}
		return best
	}

	for _, e := range instanceEdges(wf) {
		gFrom, gTo := isGPUInst[e.from], isGPUInst[e.to]
		if !gFrom && !gTo {
			continue
		}
		nFrom, nTo := instNode[e.from], instNode[e.to]
		_, fromPlaced := out[e.from]
		_, toPlaced := out[e.to]
		switch {
		case gFrom && gTo && !fromPlaced && !toPlaced && nFrom == nTo:
			// Pick the least-loaded strongest NVLink pair.
			bi, bj, bScore := 0, 1%spec.NumGPUs, math.Inf(-1)
			for i := 0; i < spec.NumGPUs; i++ {
				for j := 0; j < spec.NumGPUs; j++ {
					if i == j {
						continue
					}
					score := spec.NVLinkBps(i, j) - float64(p.load[nFrom][i]+p.load[nFrom][j])*1e9
					if score > bScore {
						bi, bj, bScore = i, j, score
					}
				}
			}
			out[e.from] = fabric.Location{Node: nFrom, GPU: bi}
			out[e.to] = fabric.Location{Node: nFrom, GPU: bj}
			p.load[nFrom][bi]++
			p.load[nFrom][bj]++
		case gFrom && !fromPlaced:
			g := p.leastLoadedGPU(nFrom, nil)
			if gTo && toPlaced && out[e.to].Node == nFrom && !out[e.to].IsHost() {
				g = bestPeer(nFrom, out[e.to].GPU)
			}
			out[e.from] = fabric.Location{Node: nFrom, GPU: g}
			p.load[nFrom][g]++
		}
		if gTo && !toPlaced {
			g := p.leastLoadedGPU(nTo, nil)
			if gFrom {
				if loc, ok := out[e.from]; ok && loc.Node == nTo && !loc.IsHost() {
					g = bestPeer(nTo, loc.GPU)
				}
			}
			out[e.to] = fabric.Location{Node: nTo, GPU: g}
			p.load[nTo][g]++
		}
	}
	// Isolated GPU instances (no edges).
	for _, si := range gpuInsts {
		if _, ok := out[si]; !ok {
			n := instNode[si]
			g := p.leastLoadedGPU(n, nil)
			out[si] = fabric.Location{Node: n, GPU: g}
			p.load[n][g]++
		}
	}
}
