package pathsel

import (
	"fmt"
	"testing"

	"grouter/internal/topology"
)

func v100Selector() *Selector {
	return New(topology.NewCluster(topology.DGXV100(), 1).Node(0))
}

// sel selects src→dst into a fresh assignment, or returns nil when Select
// reports no NVLink connectivity.
func sel(s *Selector, src, dst int) *Assignment {
	a := new(Assignment)
	if !s.Select(a, src, dst, 0) {
		return nil
	}
	return a
}

func TestDirectPairGetsParallelPaths(t *testing.T) {
	s := v100Selector()
	a := sel(s, 0, 3)
	if a == nil {
		t.Fatal("no assignment for connected pair")
	}
	if len(a.Paths) < 2 {
		t.Fatalf("paths = %v, want parallel paths on an idle mesh", a.Paths)
	}
	// First path must be the direct one (shortest first).
	if len(a.Paths[0]) != 2 {
		t.Errorf("first path %v is not direct", a.Paths[0])
	}
	// Aggregate exceeds the single direct link (48 GB/s).
	if a.TotalBW() <= topology.GBps(48) {
		t.Errorf("aggregate bw = %.0f, want > direct 48 GB/s", a.TotalBW())
	}
}

func TestWeaklyConnectedPairUsesIndirect(t *testing.T) {
	s := v100Selector()
	// 0 and 5 have no direct NVLink.
	a := sel(s, 0, 5)
	if a == nil {
		t.Fatal("expected indirect NVLink paths for 0→5")
	}
	for _, p := range a.Paths {
		if len(p) < 3 {
			t.Errorf("path %v should be indirect", p)
		}
	}
}

func TestSamePairNoAssignment(t *testing.T) {
	s := v100Selector()
	if a := sel(s, 2, 2); a != nil {
		t.Errorf("self pair got %v", a.Paths)
	}
}

func TestNoNVLinkReturnsNil(t *testing.T) {
	s := New(topology.NewCluster(topology.QuadA10(), 1).Node(0))
	if a := sel(s, 0, 1); a != nil {
		t.Errorf("A10 (no NVLink) got assignment %v", a.Paths)
	}
}

func TestSwitchedFabricSinglePath(t *testing.T) {
	s := New(topology.NewCluster(topology.DGXA100(), 1).Node(0))
	a := sel(s, 1, 6)
	if a == nil || len(a.Paths) != 1 {
		t.Fatalf("switched assignment = %+v, want single path", a)
	}
	if a.BWs[0] != topology.GBps(300) {
		t.Errorf("switch path bw = %.0f, want 300 GB/s", a.BWs[0])
	}
}

func TestContentionAvoidance(t *testing.T) {
	s := v100Selector()
	first := sel(s, 0, 3)
	second := sel(s, 1, 2)
	if second == nil {
		t.Fatal("second selection failed")
	}
	// The two assignments must not share any fully-reserved directed edge in
	// phase-1 (idle) paths. Verify the matrix never goes negative.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if s.residual(i, j) < 0 {
				t.Errorf("edge %d→%d over-reserved", i, j)
			}
		}
	}
	s.Release(first)
	s.Release(second)
	// After release the matrix is clean.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if s.used[i][j] != 0 {
				t.Errorf("edge %d→%d still reserved after release", i, j)
			}
		}
	}
}

func TestReleaseIdempotent(t *testing.T) {
	s := v100Selector()
	a := sel(s, 0, 4)
	s.Release(a)
	s.Release(a) // must not double-credit
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if s.used[i][j] != 0 {
				t.Fatalf("matrix dirty after double release")
			}
		}
	}
	s.Release(nil) // no-op
}

func TestDirectPathReassignment(t *testing.T) {
	s := v100Selector()
	// Occupy paths between 0 and 4; indirect routes may borrow edges.
	other := sel(s, 0, 4)
	if other == nil {
		t.Fatal("setup failed")
	}
	borrowed := usesEdgeAsIntermediate(other, 0, 3) || usesEdgeAsIntermediate(other, 3, 7)
	// Now a transfer that needs the 0→3 direct edge arrives.
	mine := sel(s, 0, 3)
	if mine == nil {
		t.Fatal("selection failed under contention")
	}
	// The direct path must be among my paths with positive bandwidth.
	foundDirect := false
	for i, p := range mine.Paths {
		if len(p) == 2 && mine.BWs[i] > 0 {
			foundDirect = true
		}
	}
	if borrowed && !foundDirect {
		t.Error("direct path not recovered despite reassignment opportunity")
	}
	if !foundDirect && s.residual(0, 3) > 0 {
		t.Error("direct edge free but not used")
	}
}

func TestBusyPathSharingWhenSaturated(t *testing.T) {
	s := v100Selector()
	// Saturate everything around 0→3 with repeated selections.
	for i := 0; i < 6; i++ {
		if sel(s, 0, 3) == nil {
			t.Fatal("selection failed")
		}
	}
	// Another request still gets at least one (shared) path.
	a := sel(s, 0, 3)
	if a == nil || len(a.Paths) == 0 {
		t.Fatal("saturated selection should still return a shared path")
	}
}

func TestLinksConversion(t *testing.T) {
	s := v100Selector()
	a := sel(s, 0, 3)
	links := s.Links(nil, a)
	if len(links) != len(a.Paths) {
		t.Fatalf("links = %d sets, want %d", len(links), len(a.Paths))
	}
	for i, set := range links {
		if len(set) != len(a.Paths[i])-1 {
			t.Errorf("path %v produced %d links", a.Paths[i], len(set))
		}
		if want := s.node.AppendNVLinkPathLinks(nil, a.Paths[i]); fmt.Sprint(set) != fmt.Sprint(want) {
			t.Errorf("path %v: links %v, want %v", a.Paths[i], set, want)
		}
	}
}

// TestOwnedAssignmentReuseAllocFree: selecting into an assignment its owner
// keeps, converting it into a kept link buffer and releasing it allocates
// nothing once warm, on the hybrid cube mesh (multi-hop paths) and on an
// NVSwitch fabric, and the last cycle reserves what the first did.
func TestOwnedAssignmentReuseAllocFree(t *testing.T) {
	for _, spec := range []*topology.Spec{topology.DGXV100(), topology.DGXA100()} {
		s := New(topology.NewCluster(spec, 1).Node(0))
		var a Assignment
		var links [][]topology.LinkID
		cycle := func() {
			if !s.Select(&a, 0, 5, 0) {
				t.Fatalf("%s: no assignment for 0→5", spec.Name)
			}
			links = s.Links(links, &a)
			s.Release(&a)
		}
		cycle()
		want := fmt.Sprint(a.Paths, a.BWs, links)
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: Select+Links+Release into owned buffers allocates %.1f times, want 0", spec.Name, n)
		}
		if got := fmt.Sprint(a.Paths, a.BWs, links); got != want {
			t.Errorf("%s: reused assignment %s, want %s", spec.Name, got, want)
		}
	}
}

// TestSelectIntoHeldAssignmentPanics: a held assignment is still listed as
// a live reservation, so selecting into it again is a caller bug.
func TestSelectIntoHeldAssignmentPanics(t *testing.T) {
	s := v100Selector()
	a := sel(s, 0, 3)
	defer func() {
		if recover() == nil {
			t.Error("Select into a held assignment did not panic")
		}
	}()
	s.Select(a, 1, 2, 0)
}

// rerouteSpec is an 8-GPU mesh where two transfers' indirect routes borrow
// the double-brick edge 0→1 and only one of them can move to an idle
// alternative when a 0→1 transfer claims the direct edge: 2→3 runs
// [2 0 1 3] or [2 6 7 3] and 4→5 runs [4 0 1 5] or [4 6 7 5], and the two
// alternatives share the edge 6→7.
func rerouteSpec() *topology.Spec {
	s := topology.DGXV100()
	s.Name = "reroute-mesh"
	s.NVAdj = make([][]float64, s.NumGPUs)
	for i := range s.NVAdj {
		s.NVAdj[i] = make([]float64, s.NumGPUs)
	}
	link := func(i, j int, gbps float64) {
		s.NVAdj[i][j], s.NVAdj[j][i] = topology.GBps(gbps), topology.GBps(gbps)
	}
	link(0, 1, 48)
	for _, e := range [][2]int{{2, 0}, {1, 3}, {4, 0}, {1, 5}, {2, 6}, {6, 7}, {7, 3}, {4, 6}, {7, 5}} {
		link(e[0], e[1], 24)
	}
	return s
}

// TestDirectPathRerouteOrderDeterministic: when a direct-path claim can
// reroute only one of two borrowing transfers, the earlier-selected one
// moves, on every fresh selector.
func TestDirectPathRerouteOrderDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 100; run++ {
		s := New(topology.NewCluster(rerouteSpec(), 1).Node(0))
		hold := sel(s, 6, 7) // keeps 6→7 busy while both transfers select
		a := sel(s, 2, 3)
		b := sel(s, 4, 5)
		s.Release(hold)
		mine := sel(s, 0, 1)
		got := fmt.Sprint(a.Paths, b.Paths, mine.Paths)
		if run == 0 {
			want = got
			if len(a.Paths) != 1 || len(a.Paths[0]) != 4 || a.Paths[0][1] != 6 {
				t.Fatalf("first-selected transfer 2→3 was not the one rerouted: %s", got)
			}
		}
		if got != want {
			t.Fatalf("run %d: assignments %s, want %s", run, got, want)
		}
	}
}

// BenchmarkSelect measures one warm path selection; the paper budgets <10µs
// after pruning/caching (§4.3.3).
func BenchmarkSelect(b *testing.B) {
	s := v100Selector()
	var a Assignment
	// Warm the path cache and the assignment's slices.
	s.Select(&a, 0, 5, 0)
	s.Release(&a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select(&a, 0, 5, 0)
		s.Release(&a)
	}
}
