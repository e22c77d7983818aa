package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

// FuzzFaultSchedule interleaves a seeded random schedule of fault operations
// (FailLink / RestoreLink / SetLinkBps) with flow starts and releases (Start
// / Release) over randomized multi-component topologies, and checks the
// fault-tolerance invariants:
//
//   - byte conservation: every flow ends with Transferred + undelivered
//     bytes equal to the payload it was started with, whether it completed,
//     failed mid-flight, or was dead on arrival;
//   - allocation sanity: no negative rate, and the maintained per-link
//     totals pass checkIntegrity after every event;
//   - allocator agreement: at settled instants the incremental allocator's
//     rates match the from-scratch reference (down links carry no flows, so
//     the reference needs no fault awareness);
//   - liveness: once every link is restored, all surviving flows drain;
//   - reuse: Release recycles a flow exactly when it is terminal and
//     detached, and a later Start hands it out again with fresh state.
//     Released flows are checked for conservation when they are released.
//
// `go test` runs the seed corpus below deterministically; `-fuzz` explores.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 987654321, -17} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		defer e.Close()
		links := diffTopology(rng)
		net := testNet(e, links...)

		type started struct {
			flow     *Flow
			bytes    float64
			released bool
		}
		var all []*started
		// Releases draw from their own stream, derived from the seed.
		relRng := rand.New(rand.NewSource(^seed))
		recycled := map[*Flow]bool{}
		reused := 0
		checkFlow := func(i int, s *started) {
			fl := s.flow
			if !fl.Done().Fired() {
				t.Errorf("seed %d: flow %d never terminated", seed, i)
				return
			}
			got := fl.Transferred() + fl.Remaining()
			// Completion forgives up to finishEpsilon undelivered bytes.
			if math.Abs(got-s.bytes) > finishEpsilon+1e-6 {
				t.Errorf("seed %d: flow %d bytes not conserved: transferred+remaining = %f, want %f (failed=%v)",
					seed, i, got, s.bytes, fl.Failed())
			}
			if fl.Transferred() < 0 || fl.Remaining() < 0 {
				t.Errorf("seed %d: flow %d negative byte count (t=%f r=%f)",
					seed, i, fl.Transferred(), fl.Remaining())
			}
		}
		release := func() {
			if len(all) == 0 {
				return
			}
			i := relRng.Intn(len(all))
			s := all[i]
			if s.released {
				return
			}
			fl := s.flow
			detached := fl.Done().Fired() && !fl.active && !fl.dirty && fl.heapIdx < 0
			if detached {
				checkFlow(i, s)
			}
			if got := net.Release(fl); got != detached {
				t.Errorf("seed %d: Release(flow %d) = %v, want %v (fired %v active %v dirty %v heap %d)",
					seed, i, got, detached, fl.Done().Fired(), fl.active, fl.dirty, fl.heapIdx)
			}
			if !detached {
				return
			}
			s.released = true
			recycled[fl] = true
		}

		nEvents := 40 + rng.Intn(40)
		var horizon time.Duration
		for i := 0; i < nEvents; i++ {
			at := time.Duration(rng.Intn(5000)) * time.Millisecond
			if at > horizon {
				horizon = at
			}
			op := rng.Intn(16)
			e.Schedule(at, func() {
				switch {
				case op < 8:
					// Paths may legitimately cross down links: such flows must
					// fail at this instant with zero bytes moved.
					path := diffPath(rng, len(links))
					fl := net.Start("fz", path, float64(100+rng.Intn(300000)), diffOptions(rng))
					if recycled[fl] {
						delete(recycled, fl)
						reused++
						// Fresh: nothing fired, moved or rated yet, and failed
						// only when dead on arrival.
						if fl.Done().Fired() || fl.Transferred() != 0 || fl.Rate() != 0 || fl.failed == net.PathUp(path) {
							t.Errorf("seed %d: reused flow seq %d not fresh: fired %v failed %v transferred %f rate %f",
								seed, fl.seq, fl.Done().Fired(), fl.failed, fl.Transferred(), fl.Rate())
						}
					}
					all = append(all, &started{flow: fl, bytes: fl.total})
				case op < 11:
					net.FailLink(randLink(rng, len(links)))
				case op < 14:
					net.RestoreLink(randLink(rng, len(links)))
				default:
					net.SetLinkBps(randLink(rng, len(links)), float64(20+rng.Intn(2000)))
				}
				for k := relRng.Intn(3); k > 0; k-- {
					release()
				}
			})
			e.Schedule(at+time.Nanosecond, func() {
				if err := net.checkIntegrity(); err != nil {
					t.Errorf("seed %d event %d: %v", seed, i, err)
				}
				if !net.ratesSettled() {
					return
				}
				ref := net.allocateReference()
				for _, fl := range net.order {
					if fl.rate < 0 {
						t.Errorf("seed %d: flow seq %d has negative rate %f", seed, fl.seq, fl.rate)
					}
					if d := fl.rate - ref[fl]; d > 1.0 || d < -1.0 {
						t.Errorf("seed %d: flow %q(seq %d) incremental rate %f, reference %f",
							seed, fl.label, fl.seq, fl.rate, ref[fl])
					}
				}
			})
		}
		// Heal the fabric after the last event so surviving flows can drain
		// and Run(0) terminates.
		e.Schedule(horizon+time.Millisecond, func() {
			for id := range links {
				net.RestoreLink(topology.LinkID(id))
			}
		})
		e.Run(0)

		if net.ActiveFlows() != 0 {
			t.Errorf("seed %d: %d flows still active after drain", seed, net.ActiveFlows())
		}
		for i, s := range all {
			if !s.released {
				checkFlow(i, s)
			}
		}
		t.Logf("seed %d: %d flows started, %d of them reused", seed, len(all), reused)
	})
}
