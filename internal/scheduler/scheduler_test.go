package scheduler

import (
	"testing"

	"grouter/internal/fabric"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

func place(t *testing.T, spec *topology.Spec, nodes int, wf *workflow.Workflow, opt Options) Placement {
	t.Helper()
	p := NewPlacer(topology.NewCluster(spec, nodes))
	return p.Place(wf, opt)
}

func TestEveryInstancePlaced(t *testing.T) {
	for _, wf := range workflow.Suite() {
		pl := place(t, topology.DGXV100(), 1, wf, Options{Node: -1})
		want := 0
		for _, s := range wf.Stages {
			want += s.ReplicaCount()
		}
		if len(pl) != want {
			t.Errorf("%s: placed %d instances, want %d", wf.Name, len(pl), want)
		}
		for si, loc := range pl {
			s := wf.Stage(si.Stage)
			if s.IsGPU() && loc.IsHost() {
				t.Errorf("%s: gFn %v on host", wf.Name, si)
			}
			if !s.IsGPU() && !loc.IsHost() {
				t.Errorf("%s: cFn %v on GPU", wf.Name, si)
			}
		}
	}
}

func TestMAPAPrefersConnectedPairs(t *testing.T) {
	wf := workflow.Driving()
	pl := place(t, topology.DGXV100(), 1, wf, Options{Node: -1})
	spec := topology.DGXV100()
	den := pl[StageInst{"denoise", 0}]
	seg := pl[StageInst{"segmentation", 0}]
	if den.GPU != seg.GPU && spec.NVLinkBps(den.GPU, seg.GPU) == 0 {
		t.Errorf("MAPA placed heavy edge on unconnected pair %d,%d", den.GPU, seg.GPU)
	}
}

func TestSplitAcrossNodes(t *testing.T) {
	wf := workflow.Driving()
	pl := place(t, topology.DGXV100(), 2, wf, Options{Node: -1, SplitAcrossNodes: true})
	nodes := map[int]bool{}
	for _, loc := range pl {
		nodes[loc.Node] = true
	}
	if len(nodes) < 2 {
		t.Errorf("split placement used %d nodes, want 2", len(nodes))
	}
}

func TestLoadBalancingAcrossApps(t *testing.T) {
	p := NewPlacer(topology.NewCluster(topology.DGXV100(), 2))
	for i := 0; i < 8; i++ {
		p.Place(workflow.Image(), Options{Node: -1})
	}
	// Both nodes should have received work.
	if p.nodeLoad(0) == 0 || p.nodeLoad(1) == 0 {
		t.Errorf("load not spread: node0=%d node1=%d", p.nodeLoad(0), p.nodeLoad(1))
	}
}

func TestReplicasSpread(t *testing.T) {
	wf := workflow.Video()
	pl := place(t, topology.DGXV100(), 1, wf, Options{Node: -1})
	gpus := map[int]int{}
	for si, loc := range pl {
		if si.Stage == "face-det" {
			gpus[loc.GPU]++
		}
	}
	if len(gpus) < 3 {
		t.Errorf("face-det replicas on only %d GPUs: %v", len(gpus), gpus)
	}
}

// TestPlaceDeterministic re-places the replica-heavy video workflow ten
// times on fresh placers and requires bit-identical placements. The placer
// walks Go maps internally (placement state, edge weights); any iteration-
// order dependence would show up here as run-to-run drift, which would break
// replay reproducibility downstream.
func TestPlaceDeterministic(t *testing.T) {
	wf := workflow.Video()
	opts := []Options{
		{Node: -1},
		{Node: 0, SplitAcrossNodes: true},
	}
	for _, opt := range opts {
		ref := place(t, topology.DGXV100(), 2, wf, opt)
		for run := 1; run < 10; run++ {
			got := place(t, topology.DGXV100(), 2, wf, opt)
			if len(got) != len(ref) {
				t.Fatalf("opt %+v run %d: %d instances, want %d", opt, run, len(got), len(ref))
			}
			for si, loc := range ref {
				if got[si] != loc {
					t.Fatalf("opt %+v run %d: %v placed at %v, want %v", opt, run, si, got[si], loc)
				}
			}
		}
	}
}

func TestPinnedNode(t *testing.T) {
	wf := workflow.Driving()
	pl := place(t, topology.DGXV100(), 3, wf, Options{Node: 2})
	for si, loc := range pl {
		if loc.Node != 2 {
			t.Errorf("instance %v on node %d, want pinned node 2", si, loc.Node)
		}
	}
}

func TestPlaceSingleFitPrefersHomeNode(t *testing.T) {
	p := NewPlacer(topology.NewCluster(topology.DGXV100(), 2))
	plenty := func(fabric.Location) int64 { return 1 << 40 }
	seen := map[int]bool{}
	for i := 0; i < topology.DGXV100().NumGPUs; i++ {
		loc := p.PlaceSingleFit(0, 1<<20, plenty)
		if loc.Node != 0 {
			t.Fatalf("placement %d left home node with memory available: %+v", i, loc)
		}
		if seen[loc.GPU] {
			t.Fatalf("GPU %d assigned twice while others are empty", loc.GPU)
		}
		seen[loc.GPU] = true
	}
}

func TestPlaceSingleFitCrossNodeFallback(t *testing.T) {
	p := NewPlacer(topology.NewCluster(topology.DGXV100(), 3))
	// Home node 0 is memory-starved; node 2 is made busier than node 1, so
	// the fallback must pick node 1 (least loaded first).
	for g := 0; g < 4; g++ {
		p.PlaceSingleFit(2, 0, nil)
	}
	free := func(l fabric.Location) int64 {
		if l.Node == 0 {
			return 1 << 20
		}
		return 1 << 40
	}
	loc := p.PlaceSingleFit(0, 1<<30, free)
	if loc.Node != 1 {
		t.Fatalf("saturated-home placement landed on node %d, want least-loaded fallback node 1", loc.Node)
	}
}

func TestPlaceSingleFitNoFitFallsBackHome(t *testing.T) {
	// No GPU anywhere fits: provisioning must still return a home-node GPU
	// (the least-bad device) rather than fail.
	p := NewPlacer(topology.NewCluster(topology.DGXV100(), 2))
	none := func(fabric.Location) int64 { return 0 }
	loc := p.PlaceSingleFit(1, 1<<30, none)
	if loc.Node != 1 || loc.IsHost() {
		t.Fatalf("no-fit fallback = %+v, want a home-node GPU", loc)
	}
}

func TestUnplaceReleasesLoad(t *testing.T) {
	p := NewPlacer(topology.NewCluster(topology.DGXV100(), 1))
	first := p.PlaceSingleFit(0, 0, nil)
	p.PlaceSingleFit(0, 0, nil)
	p.Unplace(first)
	// The released GPU is the least-loaded again and is reused next.
	if got := p.PlaceSingleFit(0, 0, nil); got != first {
		t.Fatalf("after Unplace, next placement = %+v, want reuse of %+v", got, first)
	}
	// Host unplace is a no-op; double-unplace must not go negative.
	p.Unplace(fabric.Location{Node: 0, GPU: fabric.HostGPU})
	p.Unplace(first)
	p.Unplace(first)
	if got := p.PlaceSingleFit(0, 0, nil); got != first {
		t.Fatalf("negative load skewed placement: got %+v", got)
	}
}
