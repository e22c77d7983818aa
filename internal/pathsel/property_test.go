package pathsel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"grouter/internal/topology"
)

// TestPropertyReserveReleaseBalances runs random Select/Release sequences
// and checks that (1) the usage matrix never exceeds link capacity, and
// (2) releasing everything returns the matrix to zero.
func TestPropertyReserveReleaseBalances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(topology.NewCluster(topology.DGXV100(), 1).Node(0))
		var live []*Assignment
		for step := 0; step < 30; step++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				src := rng.Intn(8)
				dst := rng.Intn(8)
				if src == dst {
					continue
				}
				if a := sel(s, src, dst); a != nil {
					live = append(live, a)
				}
			} else {
				i := rng.Intn(len(live))
				s.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			// Invariant: no directed edge over capacity.
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					if s.used[i][j] > s.spec.NVLinkBps(i, j)+1e-6 {
						return false
					}
				}
			}
		}
		for _, a := range live {
			s.Release(a)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if s.used[i][j] != 0 {
					return false
				}
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

// TestPropertyAssignmentsAreValidPaths checks that every selected path is a
// simple NVLink path between the requested endpoints.
func TestPropertyAssignmentsAreValidPaths(t *testing.T) {
	f := func(a, b uint8) bool {
		src, dst := int(a)%8, int(b)%8
		if src == dst {
			return true
		}
		s := New(topology.NewCluster(topology.DGXV100(), 1).Node(0))
		asg := sel(s, src, dst)
		if asg == nil {
			return true
		}
		for _, p := range asg.Paths {
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			seen := map[int]bool{}
			for i, g := range p {
				if seen[g] {
					return false
				}
				seen[g] = true
				if i > 0 && s.spec.NVLinkBps(p[i-1], g) == 0 {
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
