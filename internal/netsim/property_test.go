package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

// TestPropertyConservationAndCompletion drives randomized flow sets over a
// random small link graph and checks the two core invariants of the flow
// simulator: (1) at every observation instant no link carries more than its
// capacity, and (2) every flow eventually completes and its completion time
// is at least bytes / bottleneck-capacity.
func TestPropertyConservationAndCompletion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		defer e.Close()

		caps := make([]float64, 0, 4)
		for i := 0; i < 2+rng.Intn(3); i++ {
			caps = append(caps, float64(10+rng.Intn(1000)))
		}
		net := testNet(e, caps...)

		type flowInfo struct {
			flow   *Flow
			bytes  float64
			minCap float64
			start  time.Duration
			end    time.Duration
		}
		var flows []*flowInfo
		nFlows := 1 + rng.Intn(6)
		for i := 0; i < nFlows; i++ {
			// Random subpath of the links.
			var path []topology.LinkID
			minCap := math.Inf(1)
			for id, c := range caps {
				if rng.Intn(2) == 0 || len(path) == 0 {
					path = append(path, topology.LinkID(id))
					if c < minCap {
						minCap = c
					}
				}
			}
			bytes := float64(1 + rng.Intn(100000))
			fi := &flowInfo{bytes: bytes, minCap: minCap}
			delay := time.Duration(rng.Intn(1000)) * time.Millisecond
			e.GoAfter(delay, "flow", func(p *sim.Proc) {
				fi.start = p.Now()
				fi.flow = net.Start("f", path, bytes, Options{})
				fi.flow.Done().Wait(p)
				fi.end = p.Now()
			})
			flows = append(flows, fi)
		}
		// Observer checks conservation periodically.
		ok := true
		e.GoAfter(0, "observer", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(100 * time.Millisecond)
				for id, c := range caps {
					if net.AllocatedOn(topology.LinkID(id)) > c*1.001 {
						ok = false
					}
				}
			}
		})
		e.Run(0)
		if !ok {
			return false
		}
		for _, fi := range flows {
			if fi.flow == nil || !fi.flow.Done().Fired() {
				return false
			}
			minTime := fi.bytes / fi.minCap
			if (fi.end - fi.start).Seconds() < minTime*0.999 {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

// diffTopology builds a randomized link set exercising the allocator's
// component structure: several disjoint islands of links (so incremental
// recomputes rarely span the whole graph) plus a few shared "backbone" links
// that random paths can cross to merge islands into one component. It
// returns the capacities by handle: islands first, then the backbone.
func diffTopology(rng *rand.Rand) []float64 {
	var caps []float64
	islands := 2 + rng.Intn(3)
	for i := 0; i < islands; i++ {
		for j := 0; j < 2+rng.Intn(3); j++ {
			caps = append(caps, float64(50+rng.Intn(2000)))
		}
	}
	for b := 0; b < rng.Intn(3); b++ {
		caps = append(caps, float64(100+rng.Intn(1000)))
	}
	return caps
}

// diffPath picks a random path over links handles: usually within one island
// (keeping components disjoint), sometimes crossing a backbone link (merging
// them).
func diffPath(rng *rand.Rand, links int) []topology.LinkID {
	var path []topology.LinkID
	seen := map[topology.LinkID]bool{}
	n := 1 + rng.Intn(3)
	for len(path) < n {
		id := topology.LinkID(rng.Intn(links))
		if !seen[id] {
			seen[id] = true
			path = append(path, id)
		}
	}
	return path
}

// randLink picks one of links handles.
func randLink(rng *rand.Rand, links int) topology.LinkID {
	return topology.LinkID(rng.Intn(links))
}

func diffOptions(rng *rand.Rand) Options {
	var opt Options
	switch rng.Intn(4) {
	case 0:
		opt.MaxRate = float64(10 + rng.Intn(200))
	case 1:
		opt.MinRate = float64(5 + rng.Intn(100))
	case 2:
		opt.MinRate = float64(5 + rng.Intn(50))
		opt.MaxRate = opt.MinRate + float64(rng.Intn(100))
	}
	opt.Priority = rng.Intn(3)
	return opt
}

// TestDifferentialIncrementalVsReference interleaves randomized flow starts
// with link failures, restores and capacity changes over randomized
// multi-component topologies and, at every settled instant, asserts that the
// incremental component-scoped allocator left every active flow at exactly
// the rate the retained from-scratch reference allocator computes (within 1
// byte/s, the water-fill resolution).
func TestDifferentialIncrementalVsReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		defer e.Close()
		links := diffTopology(rng)
		net := testNet(e, links...)

		failed := false
		compared := 0
		nEvents := 10 + rng.Intn(40)
		for i := 0; i < nEvents; i++ {
			at := time.Duration(rng.Intn(5000)) * time.Millisecond
			op := rng.Intn(10)
			e.Schedule(at, func() {
				switch {
				case op < 6:
					net.Start("df", diffPath(rng, len(links)),
						float64(100+rng.Intn(500000)), diffOptions(rng))
				case op < 7:
					net.FailLink(randLink(rng, len(links)))
				case op < 8:
					net.RestoreLink(randLink(rng, len(links)))
				default:
					net.SetLinkBps(randLink(rng, len(links)), float64(20+rng.Intn(2000)))
				}
			})
			// Compare incremental vs reference 1ns after the mutation
			// instant: the debounced recompute at `at` has fired by then
			// (skip the rare instants where another event is pending).
			e.Schedule(at+time.Nanosecond, func() {
				if !net.ratesSettled() {
					return
				}
				compared++
				ref := net.allocateReference()
				for _, f := range net.order {
					if d := f.rate - ref[f]; d > 1.0 || d < -1.0 {
						t.Errorf("seed %d: flow %q(seq %d) incremental rate %f, reference %f",
							seed, f.label, f.seq, f.rate, ref[f])
						failed = true
					}
				}
				if err := net.checkIntegrity(); err != nil {
					t.Errorf("seed %d: %v", seed, err)
					failed = true
				}
			})
		}
		e.Run(0)
		if compared == 0 {
			t.Errorf("seed %d: no settled instant was ever compared", seed)
			failed = true
		}
		return !failed
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

// TestFuzzInterleavedMutations hammers one network with a long randomized
// interleaving of flow starts and link faults and asserts the maintained-index
// invariants (per-link allocated <= capacity, alloc totals match member
// rates, back-pointers consistent, order sorted) after every event.
func TestFuzzInterleavedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := sim.NewEngine()
	defer e.Close()
	links := diffTopology(rng)
	net := testNet(e, links...)

	for i := 0; i < 400; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		op := rng.Intn(10)
		e.Schedule(at, func() {
			switch {
			case op < 5:
				net.Start("fz", diffPath(rng, len(links)),
					float64(50+rng.Intn(200000)), diffOptions(rng))
			case op < 7:
				// A cut re-rates the link's flows only at the recompute it
				// schedules, so a cut below the link's allocation would
				// trip the unsettled check below. The differential harness
				// and FuzzFaultSchedule, which check settled instants, cut
				// below it.
				id := randLink(rng, len(links))
				net.SetLinkBps(id, math.Max(float64(20+rng.Intn(2000)), net.AllocatedOn(id)))
			case op < 8:
				net.FailLink(randLink(rng, len(links)))
			default:
				net.RestoreLink(randLink(rng, len(links)))
			}
		})
		// Integrity must hold both mid-mutation (same instant, before the
		// debounced recompute) and once settled 1ns later.
		e.Schedule(at, func() {
			if err := net.checkIntegrity(); err != nil {
				t.Fatalf("event %d (unsettled): %v", i, err)
			}
		})
		e.Schedule(at+time.Nanosecond, func() {
			if err := net.checkIntegrity(); err != nil {
				t.Fatalf("event %d (settled): %v", i, err)
			}
		})
	}
	e.Run(0)
	if err := net.checkIntegrity(); err != nil {
		t.Fatal(err)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("flows left after drain: %d", net.ActiveFlows())
	}
}

// TestStartBurstSchedulesOneEvent is the event-churn regression test: a
// batch of N simultaneous Start calls must coalesce into a single scheduled
// allocator event, not one Schedule(0) closure per mutation.
func TestStartBurstSchedulesOneEvent(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	net := testNet(e, 1000)
	before := net.NetStats().EventsScheduled.Load()
	const burst = 100
	for i := 0; i < burst; i++ {
		net.Start("b", []topology.LinkID{0}, 1000, Options{})
	}
	if got := net.NetStats().EventsScheduled.Load() - before; got != 1 {
		t.Errorf("burst of %d Starts scheduled %d events, want 1", burst, got)
	}
	e.Run(0)
	// The whole simulation (burst recompute + identical completions) should
	// stay within a handful of events — far below one per mutation.
	if got := net.NetStats().EventsScheduled.Load() - before; got > 10 {
		t.Errorf("full run scheduled %d events, want <= 10", got)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("flows left: %d", net.ActiveFlows())
	}
}

// TestStaggeredBurstCoalescesWithCompletionTimer verifies the second half of
// the coalescing contract: a mutation arriving while a completion timer is
// already armed for a later instant reuses the allocator's single event slot
// (rescheduling it earlier) rather than stacking an independent timer per
// mutation.
func TestStaggeredBurstCoalescesWithCompletionTimer(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	net := testNet(e, 100)
	net.Start("long", []topology.LinkID{0}, 1e6, Options{})
	const arrivals = 50
	for i := 0; i < arrivals; i++ {
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			net.Start("s", []topology.LinkID{0}, 10, Options{})
		})
	}
	e.Run(0)
	// Each arrival instant needs at most one reschedule, plus one event per
	// completion wave: O(arrivals), with a small constant.
	if got := net.NetStats().EventsScheduled.Load(); got > 3*arrivals {
		t.Errorf("staggered arrivals scheduled %d events, want <= %d", got, 3*arrivals)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("flows left: %d", net.ActiveFlows())
	}
}
