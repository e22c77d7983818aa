package netsim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"grouter/internal/sim"
	"grouter/internal/topology"
)

// testNet builds a network whose link i has capacity caps[i] and is named
// "l<i>".
func testNet(e *sim.Engine, caps ...float64) *Network {
	return newNetwork(e, len(caps), func(id topology.LinkID) float64 { return caps[id] }, testLinkName)
}

func testLinkName(id topology.LinkID) string { return fmt.Sprintf("l%d", id) }

// run runs the engine to completion and returns the final time.
func run(t *testing.T, e *sim.Engine) time.Duration {
	t.Helper()
	end := e.Run(0)
	e.Close()
	return end
}

func approx(t *testing.T, got, want time.Duration, tol float64, msg string) {
	t.Helper()
	g, w := got.Seconds(), want.Seconds()
	if w == 0 {
		if g != 0 {
			t.Errorf("%s: got %v, want 0", msg, got)
		}
		return
	}
	if math.Abs(g-w)/w > tol {
		t.Errorf("%s: got %v, want %v (±%.1f%%)", msg, got, want, tol*100)
	}
}

func TestSingleFlowCompletionTime(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var done time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		f := n.Start("f", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		done = p.Now()
	})
	run(t, e)
	approx(t, done, 10*time.Second, 1e-6, "1000B over 100B/s")
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d1, d2 time.Duration
	e.Go("a", func(p *sim.Proc) {
		f := n.Start("a", []topology.LinkID{0}, 500, Options{})
		f.Done().Wait(p)
		d1 = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		f := n.Start("b", []topology.LinkID{0}, 500, Options{})
		f.Done().Wait(p)
		d2 = p.Now()
	})
	run(t, e)
	// Both get 50 B/s, both finish at 10s.
	approx(t, d1, 10*time.Second, 1e-6, "flow a")
	approx(t, d2, 10*time.Second, 1e-6, "flow b")
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var dLong time.Duration
	e.Go("long", func(p *sim.Proc) {
		f := n.Start("long", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		dLong = p.Now()
	})
	e.Go("short", func(p *sim.Proc) {
		f := n.Start("short", []topology.LinkID{0}, 100, Options{})
		f.Done().Wait(p)
	})
	run(t, e)
	// Share 50/50 until short finishes at t=2s (100B at 50B/s); long then has
	// 900B left at 100B/s → finishes at 2 + 9 = 11s.
	approx(t, dLong, 11*time.Second, 1e-6, "long flow with departing competitor")
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 100)
	var d1, d2 time.Duration
	e.Go("a", func(p *sim.Proc) {
		f := n.Start("a", []topology.LinkID{0}, 1000, Options{})
		f.Done().Wait(p)
		d1 = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		f := n.Start("b", []topology.LinkID{1}, 1000, Options{})
		f.Done().Wait(p)
		d2 = p.Now()
	})
	run(t, e)
	approx(t, d1, 10*time.Second, 1e-6, "disjoint a")
	approx(t, d2, 10*time.Second, 1e-6, "disjoint b")
}

func TestMultiHopBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 1000, 10)
	var d time.Duration
	e.Go("a", func(p *sim.Proc) {
		f := n.Start("a", []topology.LinkID{0, 1}, 100, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	run(t, e)
	approx(t, d, 10*time.Second, 1e-6, "bottleneck link governs")
}

func TestMaxRateCap(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d time.Duration
	e.Go("a", func(p *sim.Proc) {
		f := n.Start("a", []topology.LinkID{0}, 100, Options{MaxRate: 10})
		f.Done().Wait(p)
		d = p.Now()
	})
	run(t, e)
	approx(t, d, 10*time.Second, 1e-6, "capped flow")
}

func TestCapFreesBandwidthForOthers(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var dFree time.Duration
	e.Go("capped", func(p *sim.Proc) {
		n.Start("capped", []topology.LinkID{0}, 1e9, Options{MaxRate: 20})
	})
	e.Go("free", func(p *sim.Proc) {
		f := n.Start("free", []topology.LinkID{0}, 800, Options{})
		f.Done().Wait(p)
		dFree = p.Now()
	})
	e.Run(20 * time.Second)
	e.Close()
	// Uncapped flow gets 100-20=80 B/s → 10s.
	approx(t, dFree, 10*time.Second, 1e-6, "uncapped beneficiary")
}

func TestMinRateReservationSurvivesContention(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var dReserved time.Duration
	// 8 background flows + 1 reserved flow. Without the reservation the
	// reserved flow would get 100/9 ≈ 11 B/s; with MinRate 60 it must finish
	// 600 bytes in ~10s.
	for i := 0; i < 8; i++ {
		e.Go("bg", func(p *sim.Proc) {
			n.Start("bg", []topology.LinkID{0}, 1e9, Options{})
		})
	}
	e.Go("res", func(p *sim.Proc) {
		f := n.Start("res", []topology.LinkID{0}, 600, Options{MinRate: 60})
		f.Done().Wait(p)
		dReserved = p.Now()
	})
	e.Run(30 * time.Second)
	e.Close()
	if dReserved == 0 {
		t.Fatal("reserved flow did not finish")
	}
	// MinRate 60 plus a fair share of the remaining 40/9 → slightly faster
	// than 10s.
	if dReserved > 10*time.Second {
		t.Errorf("reserved flow took %v, want <= 10s", dReserved)
	}
}

func TestPriorityTierFillsFirst(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var dHigh, dLow time.Duration
	e.Go("low", func(p *sim.Proc) {
		f := n.Start("low", []topology.LinkID{0}, 1000, Options{Priority: 0})
		f.Done().Wait(p)
		dLow = p.Now()
	})
	e.Go("high", func(p *sim.Proc) {
		f := n.Start("high", []topology.LinkID{0}, 1000, Options{Priority: 1})
		f.Done().Wait(p)
		dHigh = p.Now()
	})
	run(t, e)
	// High tier takes the whole link: finishes at 10s; low runs after: 20s.
	approx(t, dHigh, 10*time.Second, 1e-6, "high tier")
	approx(t, dLow, 20*time.Second, 1e-6, "low tier")
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	var d time.Duration = -1
	e.Go("z", func(p *sim.Proc) {
		f := n.Start("z", []topology.LinkID{0}, 0, Options{})
		f.Done().Wait(p)
		d = p.Now()
	})
	run(t, e)
	if d != 0 {
		t.Errorf("zero-byte flow finished at %v, want 0", d)
	}
}

func TestRemainingAndRateObservers(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100)
	e.Go("a", func(p *sim.Proc) {
		f := n.Start("a", []topology.LinkID{0}, 1000, Options{})
		p.Sleep(4 * time.Second)
		if r := f.Remaining(); math.Abs(r-600) > 1 {
			t.Errorf("Remaining at 4s = %f, want 600", r)
		}
		if f.Rate() != 100 {
			t.Errorf("Rate = %f, want 100", f.Rate())
		}
		if got := n.AllocatedOn(0); got != 100 {
			t.Errorf("AllocatedOn = %f, want 100", got)
		}
		if got := n.FreeOn(0); got != 0 {
			t.Errorf("FreeOn = %f, want 0", got)
		}
		f.Done().Wait(p)
	})
	run(t, e)
}

func TestUnknownLinkPanics(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	n := testNet(e, 100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown link")
		}
	}()
	n.Start("bad", []topology.LinkID{1}, 10, Options{})
}

// TestConservation checks a randomized scenario for capacity conservation:
// at no recompute instant may a link carry more than its capacity.
func TestConservationUnderChurn(t *testing.T) {
	e := sim.NewEngine()
	caps := []float64{100, 50, 200}
	n := testNet(e, caps...)
	paths := [][]topology.LinkID{
		{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2},
	}
	for i := 0; i < 30; i++ {
		i := i
		delay := time.Duration(i*137) * time.Millisecond
		e.GoAfter(delay, "churn", func(p *sim.Proc) {
			path := paths[i%len(paths)]
			opt := Options{}
			if i%4 == 0 {
				opt.MaxRate = 30
			}
			if i%5 == 0 {
				opt.MinRate = 10
			}
			if i%3 == 0 {
				opt.Priority = 1
			}
			f := n.Start("f", path, float64(50+i*13), opt)
			p.Sleep(time.Duration(i%7) * 100 * time.Millisecond)
			// Check conservation on every link at this instant.
			for id, cap := range caps {
				if got := n.AllocatedOn(topology.LinkID(id)); got > cap*1.0001 {
					t.Errorf("link %d over capacity: %f > %f", id, got, cap)
				}
			}
			f.Done().Wait(p)
		})
	}
	run(t, e)
	if n.ActiveFlows() != 0 {
		t.Errorf("flows left: %d", n.ActiveFlows())
	}
}

func TestUtilizationSnapshot(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 100, 50)
	e.Go("a", func(p *sim.Proc) {
		n.Start("a", []topology.LinkID{0}, 500, Options{MaxRate: 60})
		p.Sleep(time.Second)
		u := n.Utilization()
		if math.Abs(u["l0"]-0.6) > 0.01 {
			t.Errorf("l0 utilization = %.2f, want 0.60", u["l0"])
		}
		if u["l1"] != 0 {
			t.Errorf("l1 utilization = %.2f, want 0", u["l1"])
		}
	})
	run(t, e)
}
