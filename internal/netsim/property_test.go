package netsim

import (
	"fmt"
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

		links := make([]topology.Link, 0, 4)
		caps := map[topology.LinkID]float64{}
		for i := 0; i < 2+rng.Intn(3); i++ {
			id := topology.LinkID(string(rune('a' + i)))
			c := float64(10 + rng.Intn(1000))
			links = append(links, topology.Link{ID: id, Bps: c})
			caps[id] = c
		}
		net := New(e, links)

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
			for _, l := range links {
				if rng.Intn(2) == 0 || len(path) == 0 {
					path = append(path, l.ID)
					if caps[l.ID] < minCap {
						minCap = caps[l.ID]
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
					if net.AllocatedOn(id) > c*1.001 {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// diffTopology builds a randomized link set exercising the allocator's
// component structure: several disjoint islands of links (so incremental
// recomputes rarely span the whole graph) plus a few shared "backbone" links
// that random paths can cross to merge islands into one component.
func diffTopology(rng *rand.Rand) []topology.Link {
	var links []topology.Link
	islands := 2 + rng.Intn(3)
	for i := 0; i < islands; i++ {
		for j := 0; j < 2+rng.Intn(3); j++ {
			links = append(links, topology.Link{
				ID:  topology.LinkID(fmt.Sprintf("i%d-l%d", i, j)),
				Bps: float64(50 + rng.Intn(2000)),
			})
		}
	}
	for b := 0; b < rng.Intn(3); b++ {
		links = append(links, topology.Link{
			ID:  topology.LinkID(fmt.Sprintf("bb%d", b)),
			Bps: float64(100 + rng.Intn(1000)),
		})
	}
	return links
}

// diffPath picks a random path: usually within one island (keeping
// components disjoint), sometimes crossing a backbone link (merging them).
func diffPath(rng *rand.Rand, links []topology.Link) []topology.LinkID {
	var path []topology.LinkID
	seen := map[topology.LinkID]bool{}
	n := 1 + rng.Intn(3)
	for len(path) < n {
		id := links[rng.Intn(len(links))].ID
		if !seen[id] {
			seen[id] = true
			path = append(path, id)
		}
	}
	return path
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

// TestDifferentialIncrementalVsReference interleaves randomized
// Start/Cancel/SetOptions events over randomized multi-component topologies
// and, at every settled instant, asserts that the incremental
// component-scoped allocator left every active flow at exactly the rate the
// retained from-scratch reference allocator computes (within 1 byte/s, the
// water-fill resolution).
func TestDifferentialIncrementalVsReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		defer e.Close()
		links := diffTopology(rng)
		net := New(e, links)

		var live []*Flow
		failed := false
		compared := 0
		nEvents := 10 + rng.Intn(40)
		for i := 0; i < nEvents; i++ {
			at := time.Duration(rng.Intn(5000)) * time.Millisecond
			op := rng.Intn(10)
			e.Schedule(at, func() {
				switch {
				case op < 6 || len(live) == 0:
					f := net.Start("df", diffPath(rng, links),
						float64(100+rng.Intn(500000)), diffOptions(rng))
					live = append(live, f)
				case op < 8:
					live[rng.Intn(len(live))].SetOptions(diffOptions(rng))
				default:
					net.Cancel(live[rng.Intn(len(live))])
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFuzzInterleavedMutations hammers one network with a long randomized
// interleaving of Start/Cancel/SetOptions and asserts the maintained-index
// invariants (per-link allocated <= capacity, alloc totals match member
// rates, back-pointers consistent, order sorted) after every event.
func TestFuzzInterleavedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := sim.NewEngine()
	defer e.Close()
	links := diffTopology(rng)
	net := New(e, links)

	var live []*Flow
	for i := 0; i < 400; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		op := rng.Intn(10)
		e.Schedule(at, func() {
			switch {
			case op < 5 || len(live) == 0:
				live = append(live, net.Start("fz", diffPath(rng, links),
					float64(50+rng.Intn(200000)), diffOptions(rng)))
			case op < 8:
				live[rng.Intn(len(live))].SetOptions(diffOptions(rng))
			default:
				net.Cancel(live[rng.Intn(len(live))])
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
	net := New(e, []topology.Link{{ID: "l1", Bps: 1000}})
	before := net.NetStats().EventsScheduled.Load()
	const burst = 100
	for i := 0; i < burst; i++ {
		net.Start("b", []topology.LinkID{"l1"}, 1000, Options{})
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
	net := New(e, []topology.Link{{ID: "l1", Bps: 100}})
	net.Start("long", []topology.LinkID{"l1"}, 1e6, Options{})
	const arrivals = 50
	for i := 0; i < arrivals; i++ {
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			net.Start("s", []topology.LinkID{"l1"}, 10, Options{})
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
